package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
	"repro/internal/taskpack"
)

// simModel is the paper's offline cost of the catalog (§5.2, §5.4):
// simulated desktop hours and clicks of the sequential rip, and the core
// topology tokens of the built models.
type simModel struct {
	hours      float64
	clicks     int
	coreTokens int
}

func (s simModel) set(m metrics) {
	m.set("sim_model_h", s.hours, "sim_h")
	m.set("sim_rip_clicks", float64(s.clicks), "count")
	m.set("sim_core_tokens", float64(s.coreTokens), "tokens")
}

// ripRef is one app's sequential rip: its UNGB encoding and click count.
type ripRef struct {
	snapshot []byte
	clicks   int
}

// referenceRips reads the prepared snapshots: the sequential rip of every
// catalog app, the byte-identity reference of the offline workload.
func referenceRips(p prepared) (map[string]ripRef, error) {
	snaps, err := snapshotFiles(p.Snap)
	if err != nil {
		return nil, err
	}
	refs := make(map[string]ripRef)
	for app, data := range snaps {
		refs[app] = ripRef{snapshot: data, clicks: p.Clicks[app]}
	}
	return refs, nil
}

// warmModels is the online set-up: a fresh persistent store over the
// prepared snapshot dir, and the catalog built from it with zero rip clicks.
func warmModels(dir string, workers int) (*agent.Models, *modelstore.Store, error) {
	store := modelstore.NewPersistent(dir)
	models, err := agent.BuildModelsIn(store, workers)
	if err != nil {
		return nil, nil, err
	}
	if st := store.Stats(); st.SnapshotLoads != int64(len(agent.AppNames())) {
		return nil, nil, fmt.Errorf("warm: %d snapshot loads, want %d", st.SnapshotLoads, len(agent.AppNames()))
	}
	return models, store, nil
}

func coreTokens(models *agent.Models) int {
	n := 0
	for _, t := range models.CoreTokens {
		n += t
	}
	return n
}

func cellKey(c bench.Cell) string { return c.Setting + "|" + c.Task }

// grid is the online workloads' input: the full 8-setting × 39-task grid at
// one run per cell, with each cell's reference outcome bytes.
type grid struct {
	reg   *taskpack.Registry
	cells []bench.Cell
	ref   map[string][]byte
	outs  map[string][]agent.Outcome
	// refMS is each cell's in-process execution time while the references
	// were computed (the local side of wire.overhead_ms).
	refMS map[string]float64
}

// newGrid computes every cell's reference outcomes, sequentially, with run.
func newGrid(run func(bench.Cell) ([]agent.Outcome, error)) (*grid, error) {
	reg := taskpack.Builtin()
	g := &grid{reg: reg, cells: bench.GridCellsIn(reg, 1), ref: make(map[string][]byte), outs: make(map[string][]agent.Outcome), refMS: make(map[string]float64)}
	for _, c := range g.cells {
		t0 := time.Now()
		outs, err := run(c)
		g.refMS[cellKey(c)] = ms(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", cellKey(c), err)
		}
		data, err := json.Marshal(outs)
		if err != nil {
			return nil, err
		}
		g.ref[cellKey(c)] = data
		g.outs[cellKey(c)] = outs
	}
	return g, nil
}

// runCellRef is the online-grid oracle: the sequential bench.RunCell.
func runCellRef(reg *taskpack.Registry, models *agent.Models) func(bench.Cell) ([]agent.Outcome, error) {
	return func(c bench.Cell) ([]agent.Outcome, error) {
		set, task, err := bench.ResolveCellIn(reg, c)
		if err != nil {
			return nil, err
		}
		return bench.RunCell(models, set, task, c.Runs, 1), nil
	}
}

// counts tallies a run's checked operations: attempted, and failed of
// those. Every workload and probe counts into one.
type counts struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

func (c *counts) add(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
	}
}

// merge adds o's counts to c.
func (c *counts) merge(o *counts) {
	o.mu.Lock()
	a, f := o.attempted, o.failed
	o.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += a
	c.failed += f
}

func (c *counts) okFrac() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return 1 - ratio(c.failed, c.attempted)
}

// result is the run's result line with metrics m.
func (c *counts) result(m metrics) result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// tally checks dispatched cells against their reference outcomes and keeps
// each distinct verified cell's outcomes for the simulated session metrics.
type tally struct {
	counts
	g *grid

	seenMu sync.Mutex
	seen   map[string][]agent.Outcome
}

func newTally(g *grid) *tally { return &tally{g: g, seen: make(map[string][]agent.Outcome)} }

// record checks one dispatch against the cell's reference bytes and
// reports whether it matched. An error, a refusal, or any byte difference
// counts as a failure.
func (t *tally) record(c bench.Cell, outs []agent.Outcome, err error) bool {
	ok := err == nil
	if ok {
		data, merr := json.Marshal(outs)
		ok = merr == nil && string(data) == string(t.g.ref[cellKey(c)])
	}
	t.add(ok)
	if ok {
		t.seenMu.Lock()
		defer t.seenMu.Unlock()
		if _, dup := t.seen[cellKey(c)]; !dup {
			t.seen[cellKey(c)] = outs
		}
	}
	return ok
}

// setSessionSims sets the paper's online metrics over the distinct cells
// verified so far.
func (t *tally) setSessionSims(m metrics) {
	t.seenMu.Lock()
	defer t.seenMu.Unlock()
	setSessionSims(m, t.g.cells, t.seen)
}

// setSessionSims sets the paper's online metrics (§5.3) over the cells'
// outcomes in seen: success rates of the GUI+DMI and GUI-only settings,
// mean LLM calls of successful GUI+DMI runs, and the share of successful
// GUI+DMI runs done in one core call. They are deterministic once every
// cell has been seen.
func setSessionSims(m metrics, cells []bench.Cell, seen map[string][]agent.Outcome) {
	var dmiN, dmiOK, guiN, guiOK, calls, oneShot int
	for _, c := range cells {
		outs, ok := seen[cellKey(c)]
		if !ok {
			continue
		}
		set, _ := bench.SettingByLabel(c.Setting)
		for _, o := range outs {
			switch set.Interface {
			case agent.GUIDMI:
				dmiN++
				if o.Success {
					dmiOK++
					calls += o.Steps
					if o.OneShot {
						oneShot++
					}
				}
			case agent.GUIOnly:
				guiN++
				if o.Success {
					guiOK++
				}
			}
		}
	}
	m.set("sim_dmi_sr", ratio(dmiOK, dmiN), "ratio")
	m.set("sim_gui_sr", ratio(guiOK, guiN), "ratio")
	m.set("sim_dmi_calls", ratio(calls, dmiOK), "calls")
	m.set("sim_oneshot_frac", ratio(oneShot, dmiOK), "ratio")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cellStream yields the grid's cells in seeded shuffled passes: every pass
// visits each cell once, so the first len(cells) draws cover the grid.
type cellStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	cells []bench.Cell
	perm  []int
	pos   int
}

func newCellStream(cells []bench.Cell, rng *rand.Rand) *cellStream {
	return &cellStream{rng: rng, cells: cells}
}

func (s *cellStream) next() bench.Cell {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos == len(s.perm) {
		s.perm = s.rng.Perm(len(s.cells))
		s.pos = 0
	}
	c := s.cells[s.perm[s.pos]]
	s.pos++
	return c
}

// setLatency sets the per-operation latency and throughput metrics.
func setLatency(m metrics, latMS []float64, perSecond float64) {
	m.set("latency_p50_ms", quantile(latMS, 0.50), "ms")
	m.set("latency_p99_ms", quantile(latMS, 0.99), "ms")
	m.set("sessions_per_s", perSecond, "1/s")
}

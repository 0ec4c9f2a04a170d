package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/appkit"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/llm"
	"repro/internal/modelstore"
	"repro/internal/osworld"
	"repro/internal/serveproto"
	"repro/internal/ung"
)

// perLayerNames lists the metrics every traced run prints.
func perLayerNames() []string {
	var names []string
	for _, app := range agent.AppNames() {
		names = append(names, "ung.rip_ms."+app, "osworld.build_env_ms."+app, "osworld.build_env_alloc_kb."+app)
	}
	return append(names,
		"ung.frames", "ung.frames_ok_frac", "ung.expand_ms_p50", "ung.expand_busy_s",
		"ung.encode_ms", "ung.decode_ms", "ung.snapshot_bytes",
		"appkit.soft_reset_us", "appkit.soft_reset_allocs", "uia.snapshot_us",
		"forest.transform_ms", "describe.model_ms",
		"agent.run_ms.gui", "agent.run_ms.forest", "agent.run_ms.dmi", "agent.drive_ms",
		"core.prompt_stats_us", "bench.dispatch_ms", "modelstore.hit_ratio", "modelstore.snapshot_loads",
		"bench.remote_dispatch_ms_p50", "bench.remote_dispatch_ms_p99", "wire.overhead_ms",
		"serveproto.encode_us", "serveproto.decode_us", "bench.retries",
		"dmi-serve.in_flight_max", "dmi-serve.hit_ratio",
		"go.gc_cpu_frac", "go.alloc_mb_per_op", "loadgen.late_ms_p99",
		"trace.overhead_frac", "trace.coverage_frac",
	)
}

// suite measures the layers of the traced run. Every workload's traced run
// measures every layer: its own loop covers the layers on its path, and the
// probes below cover the rest with fixed, seeded samples. Every checked
// operation counts into the suite's counts.
type suite struct {
	counts
	o      options
	log    io.Writer
	rec    *recorder
	m      metrics
	rng    *rand.Rand
	models *agent.Models
	g      *grid
}

func newSuite(o options, log io.Writer) *suite {
	return &suite{o: o, log: log, rec: newRecorder(), m: metrics{}, rng: newRand(o, 7)}
}

func (s *suite) result() result { return s.counts.result(s.m) }

// finish writes the trace files for the traced windows and sets the
// tracing overhead and blocking-path coverage metrics. laneSelf holds the
// blocking lanes' summed layer self times in ms, where coverage came from
// lanes.
func (s *suite) finish(ws []window, lanes []int, laneSelf map[string]float64, cov, overhead float64) error {
	spans := s.rec.snapshot()
	rep := traceReport{Workload: s.o.workload, Seed: s.o.seed, WallMS: ms(wall(ws)), BlockingLanes: lanes,
		LaneSelfMS: laneSelf, CoverageFrac: cov, OverheadFrac: overhead, Layers: summarize(spans)}
	s.m.set("trace.overhead_frac", overhead, "ratio")
	s.m.set("trace.coverage_frac", cov, "ratio")
	return writeTraceFiles(traceDir(s.o), rep, spans, s.log)
}

// tracingExpander wraps an ung.Expander on the public seam. It keeps the
// dispatched frames in its own LIFO and hands at most slots of them to the
// inner expander at a time, so every inner expansion starts when it is
// handed over and its span measures service time, not queue wait. The rip
// that uses it is an "ung.rip" span, from the wrapper's construction to its
// Close; each expansion is an "ung.expand" child on a slot's lane.
type tracingExpander struct {
	inner ung.Expander
	rec   *recorder
	rip   int // the "ung.rip" span
	done  chan struct{}

	mu      sync.Mutex
	closed  bool
	pending []*tracedJob
	free    []int // idle slots, used as span lanes
	frames  int
	ok      int
	busy    time.Duration
}

type tracedJob struct {
	ctx string
	f   ung.Frame
	out chan ung.ExpandResult
}

func newTracingExpander(inner ung.Expander, rec *recorder, parent int, app string, slots, laneBase int) *tracingExpander {
	t := &tracingExpander{inner: inner, rec: rec, rip: rec.begin("ung.rip", parent, 0, app), done: make(chan struct{})}
	for i := slots; i >= 1; i-- {
		t.free = append(t.free, laneBase+i)
	}
	return t
}

func (t *tracingExpander) Expand(ctx string, f ung.Frame) <-chan ung.ExpandResult {
	j := &tracedJob{ctx: ctx, f: f, out: make(chan ung.ExpandResult, 1)}
	t.mu.Lock()
	t.pending = append(t.pending, j)
	t.mu.Unlock()
	t.pump()
	return j.out
}

// pump hands pending frames, newest first, to idle slots.
func (t *tracingExpander) pump() {
	for {
		t.mu.Lock()
		if t.closed || len(t.free) == 0 || len(t.pending) == 0 {
			t.mu.Unlock()
			return
		}
		j := t.pending[len(t.pending)-1]
		t.pending = t.pending[:len(t.pending)-1]
		lane := t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		t.mu.Unlock()

		id := t.rec.begin("ung.expand", t.rip, lane, j.f.ID)
		res := t.inner.Expand(j.ctx, j.f)
		go func() {
			var r ung.ExpandResult
			select {
			case r = <-res:
			case <-t.done:
				return // an aborted rip dropped the frame
			}
			d := t.rec.end(id)
			t.mu.Lock()
			t.frames++
			if r.Err == nil && r.Expansion.Outcome == ung.ExpandOK {
				t.ok++
			}
			t.busy += d
			t.free = append(t.free, lane)
			t.mu.Unlock()
			j.out <- r
			t.pump()
		}()
	}
}

func (t *tracingExpander) Close() ung.ExpanderStats {
	t.mu.Lock()
	first := !t.closed
	t.closed = true
	t.pending = nil
	t.mu.Unlock()
	st := t.inner.Close()
	if first {
		close(t.done)
		t.rec.end(t.rip)
	}
	return st
}

// tracedBuild builds one app through store.Build with the tracing wrapper
// on the store's Expander seam, so the rip is
// ung.RipDispatched(factory(), cfg, wrap(ung.NewLocalExpander(factory, n))),
// exactly ung.RipParallel's body, inside the store's own pipeline. The
// build is a "modelstore.build" span on lane 0; its self time is the
// store's transform, describe, encode and snapshot write.
func (s *suite) tracedBuild(store *modelstore.Store, app string, parent int) (modelstore.Build, *tracingExpander, error) {
	factory := agent.Factories()[app]
	var te *tracingExpander
	id := s.rec.begin("modelstore.build", parent, 0, app)
	b, err := store.Build(app, factory, modelstore.Options{Workers: s.o.workers,
		NewExpander: func(app string) (ung.Expander, error) {
			te = newTracingExpander(ung.NewLocalExpander(factory, s.o.workers), s.rec, id, app, s.o.workers, 100)
			return te, nil
		}})
	s.rec.end(id)
	if err == nil {
		err = b.SnapshotErr
	}
	if err == nil && te == nil {
		err = fmt.Errorf("%s: the store did not rip", app)
	}
	return b, te, err
}

// setBuildMetrics derives the ung metrics from the traced builds' spans
// and expanders: per-app median rip times, and frames per catalog pass.
func (s *suite) setBuildMetrics(tes []*tracingExpander) {
	spans := s.rec.snapshot()
	for _, app := range agent.AppNames() {
		s.m.set("ung.rip_ms."+app, appMedianMS(spans, "ung.rip", app), "ms")
	}
	s.m.set("ung.expand_ms_p50", median(spanDurations(spans, "ung.expand")), "ms")
	var frames, ok int
	var busy time.Duration
	for _, te := range tes {
		frames += te.frames
		ok += te.ok
		busy += te.busy
	}
	passes := float64(len(tes)) / float64(len(agent.AppNames()))
	s.m.set("ung.frames", float64(frames)/passes, "count")
	s.m.set("ung.frames_ok_frac", ratio(ok, frames), "ratio")
	s.m.set("ung.expand_busy_s", busy.Seconds()/passes, "s")
}

// appMedianMS is the median duration, in ms, of the spans with the name
// whose request id is app.
func appMedianMS(spans []span, name, app string) float64 {
	var xs []float64
	for _, sp := range spans {
		if sp.Name == name && sp.Req == app {
			xs = append(xs, ms(sp.dur()))
		}
	}
	return median(xs)
}

// ripProbe is one traced catalog build into a fresh persistent store under
// dir, with every snapshot file checked against the reference bytes,
// followed by the pipeline probe over the built graphs.
func (s *suite) ripProbe(dir string, refs map[string][]byte) error {
	root := s.rec.begin("probe.rip", 0, 0, "catalog")
	pdir := filepath.Join(dir, "probe-rip")
	store := modelstore.NewPersistent(pdir)
	var tes []*tracingExpander
	graphs := make(map[string]*ung.Graph)
	for _, app := range agent.AppNames() {
		b, te, err := s.tracedBuild(store, app, root)
		if err != nil {
			return err
		}
		tes, graphs[app] = append(tes, te), b.Graph
	}
	s.rec.end(root)
	snaps, err := snapshotFiles(pdir)
	for _, app := range agent.AppNames() {
		s.add(err == nil && string(snaps[app]) == string(refs[app]))
	}
	if err := os.RemoveAll(pdir); err != nil {
		return err
	}
	s.setBuildMetrics(tes)
	return s.pipelineProbe(graphs, refs)
}

// pipelineProbe times, per app over the built graphs, the calls the store
// makes after a rip (forest.Transform, describe.NewModel, ung.EncodeBinary)
// and the snapshot read path (ung.DecodeBinary), and sets each as the
// per-app median summed over the catalog. Every encoding is checked
// against the reference snapshot bytes.
func (s *suite) pipelineProbe(graphs map[string]*ung.Graph, refs map[string][]byte) error {
	root := s.rec.begin("probe.pipeline", 0, 0, "catalog")
	defer s.rec.end(root)
	size := 0
	for _, app := range agent.AppNames() {
		g := graphs[app]
		for i := 0; i < 5; i++ {
			id := s.rec.begin("forest.transform", root, 0, app)
			f, _, err := forest.Transform(g, forest.Options{})
			s.rec.end(id)
			if err != nil {
				return fmt.Errorf("transform %s: %w", app, err)
			}
			id = s.rec.begin("describe.model", root, 0, app)
			_ = describe.NewModel(f)
			s.rec.end(id)
			id = s.rec.begin("ung.encode", root, 0, app)
			data, err := ung.EncodeBinary(g)
			s.rec.end(id)
			s.add(err == nil && string(data) == string(refs[app]))
			id = s.rec.begin("ung.decode", root, 0, app)
			_, err = ung.DecodeBinary(refs[app])
			s.rec.end(id)
			if err != nil {
				return fmt.Errorf("decode %s: %w", app, err)
			}
		}
		size += len(refs[app])
	}
	spans := s.rec.snapshot()
	for metric, name := range map[string]string{"forest.transform_ms": "forest.transform",
		"describe.model_ms": "describe.model", "ung.encode_ms": "ung.encode", "ung.decode_ms": "ung.decode"} {
		total := 0.0
		for _, app := range agent.AppNames() {
			total += appMedianMS(spans, name, app)
		}
		s.m.set(metric, total, "ms")
	}
	s.m.set("ung.snapshot_bytes", float64(size), "bytes")
	return nil
}

// clickPath clicks up to n seeded on-screen, enabled controls, so the
// following reset has UI state to undo. Click errors are expected (not
// every control accepts a click) and ignored.
func clickPath(app *appkit.App, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		snap := app.Desk.Snapshot()
		if len(snap) == 0 {
			return
		}
		e := snap[rng.Intn(len(snap))]
		if e.Enabled() && e.OnScreen() {
			_ = app.Desk.Click(e)
		}
	}
}

// probes times the per-call layers with fixed seeded samples: App.SoftReset
// after a click path, Desktop.Snapshot, Task.BuildEnv, agent.Run per
// interface, Session.PromptStats and the serveproto payload codec.
func (s *suite) probes() {
	root := s.rec.begin("probe.calls", 0, 0, "catalog")
	defer s.rec.end(root)
	factories := agent.Factories()
	var resetUS, resetAllocs, snapUS []float64
	for _, app := range agent.AppNames() {
		inst := factories[app]()
		var r, a, sn []float64
		for i := 0; i < 20; i++ {
			clickPath(inst, s.rng, 3)
			start := time.Now()
			d, allocs, _ := measureAllocs(inst.SoftReset)
			s.rec.add("appkit.soft_reset", root, 0, app, start, start.Add(d))
			r = append(r, us(d))
			a = append(a, float64(allocs))
		}
		for i := 0; i < 30; i++ {
			id := s.rec.begin("uia.snapshot", root, 0, app)
			_ = inst.Desk.Snapshot()
			sn = append(sn, us(s.rec.end(id)))
		}
		resetUS = append(resetUS, median(r))
		resetAllocs = append(resetAllocs, median(a))
		snapUS = append(snapUS, median(sn))
	}
	s.m.set("appkit.soft_reset_us", mean(resetUS), "us")
	s.m.set("appkit.soft_reset_allocs", mean(resetAllocs), "count")
	s.m.set("uia.snapshot_us", mean(snapUS), "us")

	// Task.BuildEnv per app; the per-task medians feed agent.drive_ms.
	envMS := make(map[string]float64)
	for _, app := range agent.AppNames() {
		var d, kb []float64
		for _, task := range s.g.reg.Tasks() {
			if task.App != app {
				continue
			}
			var per []float64
			for i := 0; i < 3; i++ {
				start := time.Now()
				var err error
				el, _, bytes := measureAllocs(func() { _, err = task.BuildEnv() })
				s.rec.add("osworld.build_env", root, 0, task.ID, start, start.Add(el))
				s.add(err == nil)
				per = append(per, ms(el))
				kb = append(kb, float64(bytes)/1024)
			}
			envMS[task.ID] = median(per)
			d = append(d, median(per))
		}
		s.m.set("osworld.build_env_ms."+app, median(d), "ms")
		s.m.set("osworld.build_env_alloc_kb."+app, mean(kb), "KB")
	}

	// agent.Run per interface over every task at the GPT-5 / Medium
	// settings, checked against the grid reference for the same cell.
	ifaces := map[agent.Interface]string{agent.GUIOnly: "gui", agent.GUIForest: "forest", agent.GUIDMI: "dmi"}
	var all, env []float64
	for _, set := range bench.Matrix()[:3] {
		var xs []float64
		for _, task := range s.g.reg.Tasks() {
			cfg := agent.Config{Interface: set.Interface, Profile: set.Profile}
			rng := llm.Rand(set.Profile.Name+"/"+set.Profile.Reasoning, task.ID, 0)
			id := s.rec.begin("agent.run."+ifaces[set.Interface], root, 0, task.ID)
			out := agent.Run(s.models, task, cfg, rng)
			d := ms(s.rec.end(id))
			data, _ := json.Marshal([]agent.Outcome{out})
			s.add(string(data) == string(s.g.ref[cellKey(bench.Cell{Task: task.ID, Setting: set.Label})]))
			xs = append(xs, d)
			all = append(all, d)
			env = append(env, envMS[task.ID])
		}
		s.m.set("agent.run_ms."+ifaces[set.Interface], mean(xs), "ms")
	}
	s.m.set("agent.drive_ms", mean(all)-mean(env), "ms")

	var ps []float64
	for _, app := range agent.AppNames() {
		task := firstTask(s.g, app)
		sess := core.NewSession(task.Build().App, s.models.ByApp[app], core.Options{})
		var xs []float64
		for i := 0; i < 30; i++ {
			id := s.rec.begin("core.prompt_stats", root, 0, task.ID)
			sess.PromptStats(0)
			xs = append(xs, us(s.rec.end(id)))
		}
		ps = append(ps, median(xs))
	}
	s.m.set("core.prompt_stats_us", mean(ps), "us")

	var enc, dec []float64
	for i := 0; i < 60; i++ {
		c := s.g.cells[s.rng.Intn(len(s.g.cells))]
		resp := serveproto.SessionResponse{App: c.App, Task: c.Task, Setting: c.Setting, Runs: c.Runs,
			Pack: s.g.reg.Name(), PackHash: s.g.reg.Hash(), Outcomes: s.g.outs[cellKey(c)]}
		id := s.rec.begin("serveproto.encode", root, 0, cellKey(c))
		data, err := json.Marshal(resp)
		enc = append(enc, us(s.rec.end(id)))
		var back serveproto.SessionResponse
		id = s.rec.begin("serveproto.decode", root, 0, cellKey(c))
		if err == nil {
			err = json.Unmarshal(data, &back)
		}
		dec = append(dec, us(s.rec.end(id)))
		s.add(err == nil)
	}
	s.m.set("serveproto.encode_us", median(enc), "us")
	s.m.set("serveproto.decode_us", median(dec), "us")
}

func firstTask(g *grid, app string) osworld.Task {
	for _, t := range g.reg.Tasks() {
		if t.App == app {
			return t
		}
	}
	return osworld.Task{}
}

package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/describe"
	"repro/internal/modelstore"
	"repro/internal/taskpack"
	"repro/internal/ung"
)

// minPasses is the fewest catalog passes a run times, so model_s is a
// median of several.
const minPasses = 3

// buildFunc builds one app into a pass's store.
type buildFunc func(store *modelstore.Store, app string) (modelstore.Build, error)

// plainBuild is the untraced build: store.Build with a pool of workers rip
// workers, the default path of agent.BuildModels and the daemon prewarm.
func plainBuild(workers int) buildFunc {
	factories := agent.Factories()
	return func(store *modelstore.Store, app string) (modelstore.Build, error) {
		return store.Build(app, factories[app], modelstore.Options{Workers: workers})
	}
}

// coldRun is a series of cold catalog passes under dir.
type coldRun struct {
	dir     string
	passS   []float64                   // wall time of each pass
	appMS   []float64                   // wall time of each app build
	speeds  []float64                   // each pass's calibration factor (calibrated runs only)
	last    map[string]modelstore.Build // the last pass's builds
	lastDir string                      // the last pass's snapshot dir (kept)
	store   modelstore.Stats            // the last pass's store counters
}

// pass builds the whole catalog with build, into a fresh persistent store,
// in seeded app order. Every app's snapshot file must equal the sequential
// reference bytes and its rip must spend the reference clicks; every app
// build counts into c. Only the last pass's snapshot dir is kept.
func (r *coldRun) pass(refs map[string]ripRef, rng *rand.Rand, c *counts, build buildFunc) error {
	apps := agent.AppNames()
	pdir := filepath.Join(r.dir, fmt.Sprintf("pass-%d", len(r.passS)))
	store := modelstore.NewPersistent(pdir)
	builds := make(map[string]modelstore.Build)
	errs := make(map[string]error)
	t0 := time.Now()
	for _, i := range rng.Perm(len(apps)) {
		a0 := time.Now()
		b, err := build(store, apps[i])
		r.appMS = append(r.appMS, ms(time.Since(a0)))
		if err == nil {
			err = b.SnapshotErr
		}
		builds[apps[i]], errs[apps[i]] = b, err
	}
	r.passS = append(r.passS, time.Since(t0).Seconds())

	snaps, err := snapshotFiles(pdir)
	for _, app := range apps {
		c.add(err == nil && errs[app] == nil && string(snaps[app]) == string(refs[app].snapshot) &&
			builds[app].RipStats.Clicks == refs[app].clicks)
	}
	if r.lastDir != "" {
		if err := os.RemoveAll(r.lastDir); err != nil {
			return err
		}
	}
	r.last, r.lastDir, r.store = builds, pdir, store.Stats()
	return nil
}

// coldPasses runs untraced cold catalog passes under dir until dur has
// passed, and at least minPasses times, with a calibration sample before
// the first pass and after every pass.
func coldPasses(dir string, refs map[string]ripRef, workers int, rng *rand.Rand, dur time.Duration, c *counts, cal *calibrator) (*coldRun, error) {
	r := &coldRun{dir: dir}
	build := plainBuild(workers)
	before := cal.sample()
	start := time.Now()
	for len(r.passS) < minPasses || time.Since(start) < dur {
		if err := r.pass(refs, rng, c, build); err != nil {
			return r, err
		}
		after := cal.sample()
		r.speeds = append(r.speeds, speed(before, after))
		before = after
	}
	return r, nil
}

// calibrated returns the pass and app build times scaled by their pass's
// calibration factor.
func (r *coldRun) calibrated() (passS, appMS []float64) {
	perPass := len(r.appMS) / len(r.passS)
	for i, f := range r.speeds {
		passS = append(passS, r.passS[i]*f)
		for _, a := range r.appMS[i*perPass : (i+1)*perPass] {
			appMS = append(appMS, a*f)
		}
	}
	return passS, appMS
}

// modelsOf assembles the catalog view agent.BuildModels would return from
// one pass's builds.
func modelsOf(builds map[string]modelstore.Build) *agent.Models {
	m := &agent.Models{ByApp: map[string]*describe.Model{}, CoreTokens: map[string]int{}, FullTokens: map[string]int{}}
	for app, b := range builds {
		m.ByApp[app], m.CoreTokens[app], m.FullTokens[app] = b.Model, b.CoreTokens, b.FullTokens
	}
	return m
}

// runOffline is the offline-catalog workload.
func runOffline(o options, log io.Writer) (result, error) {
	dir, err := workDir(o)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	// Set-up: a fresh persistent store and one instance of every catalog
	// app, the state a cold build starts from, several times.
	var setups []float64
	factories := agent.Factories()
	cal, err := newCalibrator(o.workers)
	if err != nil {
		return result{}, err
	}
	setupF, err := cal.solo().repeat(setupReps, 10, func() error {
		runtime.GC()
		t0 := time.Now()
		_ = modelstore.NewPersistent(filepath.Join(dir, "setup"))
		for _, app := range agent.AppNames() {
			_ = factories[app]()
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	})
	if err != nil {
		return result{}, err
	}

	p, err := prepare(dir)
	if err != nil {
		return result{}, err
	}
	refs, err := referenceRips(p)
	if err != nil {
		return result{}, err
	}
	rng := newRand(o, 1)
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return traceOffline(o, log, dir, refs, rng, dur)
	}
	c := &counts{}
	rss := sampleRSS("self")
	r, err := coldPasses(dir, refs, o.workers, rng, dur, c, cal)
	peakRSS := rss.peak()
	if err != nil {
		return result{}, err
	}
	passS, appMS := r.calibrated()
	fmt.Fprintf(log, "offline-catalog: measured model_s %.4f s, setup_s %.6f s; median calibration factor %.4f over %d passes\n",
		median(r.passS), median(setups), median(r.speeds), len(r.passS))
	models := modelsOf(r.last)
	sim := p.sim()
	sim.coreTokens = coreTokens(models)

	// The paper's online metrics over the freshly built models: one
	// untimed sequential pass of the grid.
	local := bench.NewLocalDispatcherIn(taskpack.Builtin(), models, 1)
	g, err := newGrid(func(c bench.Cell) ([]agent.Outcome, error) { return local.Dispatch(context.Background(), c) })
	if err != nil {
		return result{}, err
	}

	m := metrics{}
	m.set("setup_s", median(scaled(setups, setupF)), "s")
	m.set("model_s", median(passS), "s")
	var total float64
	for _, s := range passS {
		total += s
	}
	setLatency(m, appMS, float64(len(appMS))/total)
	m.set("ok_frac", c.okFrac(), "ratio")
	m.set("peak_rss_mb", peakRSS, "MB")
	sim.set(m)
	setSessionSims(m, g.cells, g.outs)
	return c.result(m), nil
}

// traceOffline is offline-catalog's traced run: untraced and traced cold
// passes, alternating, for the run time; then the pipeline probe on the
// last traced pass's graphs, and the probe suite and the remote probe on
// the last untraced pass's models and snapshots. A traced pass differs
// from an untraced one only by the tracing wrapper on the store's Expander
// seam and the spans around each store.Build.
func traceOffline(o options, log io.Writer, dir string, refs map[string]ripRef, rng *rand.Rand, dur time.Duration) (result, error) {
	s := newSuite(o, log)
	plain := &coldRun{dir: filepath.Join(dir, "plain")}
	traced := &coldRun{dir: filepath.Join(dir, "traced")}
	untraced := plainBuild(o.workers)
	var tes []*tracingExpander
	var ws []window
	var ratios []float64
	var rt runtimeSample
	start := time.Now()
	for len(traced.passS) < minPasses || time.Since(start) < dur {
		if err := plain.pass(refs, rng, &s.counts, untraced); err != nil {
			return result{}, err
		}
		r0, w := readRuntime(), window{from: s.rec.now()}
		root := s.rec.begin("pass", 0, 0, fmt.Sprint(len(traced.passS)))
		err := traced.pass(refs, rng, &s.counts, func(store *modelstore.Store, app string) (modelstore.Build, error) {
			b, te, err := s.tracedBuild(store, app, root)
			if te != nil {
				tes = append(tes, te)
			}
			return b, err
		})
		s.rec.end(root)
		w.to = s.rec.now()
		rt, ws = rt.plus(r0, readRuntime()), append(ws, w)
		if err != nil {
			return result{}, err
		}
		ratios = append(ratios, traced.passS[len(traced.passS)-1]/plain.passS[len(plain.passS)-1])
	}
	s.setBuildMetrics(tes)
	s.m.set("go.gc_cpu_frac", gcFrac(runtimeSample{}, rt), "ratio")
	s.m.set("go.alloc_mb_per_op", float64(rt.allocBytes)/1e6/float64(len(tes)), "MB")
	s.m.set("modelstore.hit_ratio", ratio(int(plain.store.Hits), int(plain.store.Hits+plain.store.Misses)), "ratio")
	s.m.set("modelstore.snapshot_loads", float64(plain.store.SnapshotLoads), "count")
	graphs := make(map[string]*ung.Graph)
	snapRefs := make(map[string][]byte)
	for app, r := range refs {
		graphs[app], snapRefs[app] = traced.last[app].Graph, r.snapshot
	}
	if err := s.pipelineProbe(graphs, snapRefs); err != nil {
		return result{}, err
	}

	s.models = modelsOf(plain.last)
	local := bench.NewLocalDispatcherIn(taskpack.Builtin(), s.models, 1)
	var err error
	s.g, err = newGrid(func(c bench.Cell) ([]agent.Outcome, error) { return local.Dispatch(context.Background(), c) })
	if err != nil {
		return result{}, err
	}
	s.m.set("bench.dispatch_ms", median(mapValues(s.g.refMS)), "ms")
	s.probes()
	if err := s.remoteProbe(plain.lastDir); err != nil {
		return result{}, err
	}
	cov, laneSelf := coverage(s.rec.snapshot(), []int{0}, ws)
	if err := s.finish(ws, []int{0}, laneSelf, cov, median(ratios)-1); err != nil {
		return result{}, err
	}
	return s.result(), nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
	"repro/internal/taskpack"
	"repro/internal/ung"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload re-executes itself for the preparation step.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == prepareFlag {
		if err := prepareInto(os.Args[2]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestCalibration checks the calibration arithmetic: a stretch's factor is
// calibRefS over the mean of its two bracketing samples, repeat gives every
// call its block's factor, and scaled and coldRun.calibrated apply them.
func TestCalibration(t *testing.T) {
	if got := speed(calibRefS/2, calibRefS*3/2); got != 1 {
		t.Errorf("speed = %v, want 1", got)
	}
	c, err := newCalibrator(2)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	factors, err := c.repeat(5, 2, func() error { calls++; return nil })
	if err != nil || calls != 5 || len(factors) != 5 {
		t.Fatalf("repeat: %d calls, %d factors, %v", calls, len(factors), err)
	}
	if factors[0] != factors[1] || factors[2] != factors[3] || factors[4] <= 0 || math.IsInf(factors[4], 0) {
		t.Errorf("block factors %v", factors)
	}
	if got := scaled([]float64{2, 3}, []float64{0.5, 2}); got[0] != 1 || got[1] != 6 {
		t.Errorf("scaled = %v", got)
	}
	r := coldRun{passS: []float64{1, 2}, appMS: []float64{10, 20, 30, 40}, speeds: []float64{0.5, 2}}
	passS, appMS := r.calibrated()
	if fmt.Sprint(passS, appMS) != "[0.5 4] [5 10 60 80]" {
		t.Errorf("calibrated = %v %v", passS, appMS)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Lane: 1, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Lane: 1, Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Lane: 1, Start: 40 * ms, End: 90 * ms},
		{ID: 4, Parent: 3, Name: "c", Lane: 1, Start: 50 * ms, End: 60 * ms},
		// Runs on another goroutine: does not block its parent.
		{ID: 5, Parent: 1, Name: "async", Lane: 7, Start: 20 * ms, End: 95 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 20 * ms, 2: 30 * ms, 3: 40 * ms, 4: 10 * ms, 5: 75 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	var sum time.Duration
	for _, s := range spans {
		if s.Lane == 1 {
			sum += self[s.ID]
		}
	}
	if sum != spans[0].dur() {
		t.Errorf("lane 1 self times sum to %v, want the root's %v", sum, spans[0].dur())
	}
	rows := summarize(spans)
	if rows[0].Name != "async" || rows[0].Count != 1 {
		t.Errorf("summary not sorted by self time: %+v", rows)
	}
}

// TestCoverage checks that only layer spans count towards coverage: the
// self time of the benchmark's own root spans, and gaps between them, are
// uncovered.
func TestCoverage(t *testing.T) {
	ms := time.Millisecond
	full := []span{
		{ID: 1, Name: "loop.cell", Lane: 1, Start: 0, End: 50 * ms},
		{ID: 2, Parent: 1, Name: "bench.dispatch", Lane: 1, Start: 0, End: 50 * ms},
		{ID: 3, Name: "loop.cell", Lane: 1, Start: 50 * ms, End: 100 * ms},
		{ID: 4, Parent: 3, Name: "bench.dispatch", Lane: 1, Start: 50 * ms, End: 100 * ms},
	}
	cov, per := coverage(full, []int{1}, []window{{0, 100 * ms}})
	if cov != 1 || per["1"] != 100 {
		t.Errorf("coverage = %v (%v), want 1", cov, per)
	}
	// A gap inside a root span lowers coverage, though the roots still
	// span the whole lane.
	gap := append([]span(nil), full...)
	gap[3].Start = 70 * ms
	if cov, _ := coverage(gap, []int{1}, []window{{0, 100 * ms}}); cov != 0.8 {
		t.Errorf("coverage with a gap in a root = %v, want 0.8", cov)
	}
	// So does a gap between roots, and a lane that is not blocking does not
	// count.
	if cov, _ := coverage(full, []int{1}, []window{{0, 200 * ms}}); cov != 0.5 {
		t.Errorf("coverage with a gap after the roots = %v, want 0.5", cov)
	}
	if cov, _ := coverage(full, []int{1, 2}, []window{{0, 100 * ms}}); cov != 0.5 {
		t.Errorf("coverage with an idle lane = %v, want 0.5", cov)
	}
	// Only spans inside the traced windows count, over the windows' summed
	// wall time.
	if cov, _ := coverage(full, []int{1}, []window{{0, 50 * ms}, {100 * ms, 150 * ms}}); cov != 0.5 {
		t.Errorf("coverage over two windows = %v, want 0.5", cov)
	}

	// Overlapping requests: each root on its own lane; the generator's
	// wait is the benchmark's own.
	reqs := []span{
		{ID: 1, Name: "request", Lane: 10000, Start: 0, End: 40 * ms},
		{ID: 2, Parent: 1, Name: "loadgen.wait", Lane: 10000, Start: 0, End: 10 * ms},
		{ID: 3, Parent: 1, Name: "bench.remote_dispatch", Lane: 10000, Start: 10 * ms, End: 40 * ms},
		{ID: 4, Name: "request", Lane: 10001, Start: 20 * ms, End: 80 * ms},
		{ID: 5, Parent: 4, Name: "bench.remote_dispatch", Lane: 10001, Start: 20 * ms, End: 70 * ms},
	}
	if got := requestCoverage(reqs, "request", []window{{0, 100 * ms}}); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("requestCoverage = %v, want 0.8", got)
	}
	for name, want := range map[string]bool{"ung.rip": true, "dmi-serve.stats": true, "loop.cell": false,
		"pass": false, "request": false, "loadgen.wait": false, "probe.rip": false} {
		if isLayerSpan(name) != want {
			t.Errorf("isLayerSpan(%q) = %v", name, !want)
		}
	}
}

func TestRecorder(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", 0, 0, "req")
	child := r.begin("child", root, 0, "req")
	time.Sleep(2 * time.Millisecond)
	r.end(child)
	open := r.begin("open", root, 0, "req")
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot has %d closed spans, want 2 (open span %d excluded)", len(spans), open)
	}
	if spans[1].dur() < 2*time.Millisecond || spans[0].dur() < spans[1].dur() {
		t.Errorf("durations: root %v, child %v", spans[0].dur(), spans[1].dur())
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 2 {
		t.Fatalf("trace file: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestCheckMetricSet(t *testing.T) {
	m := metrics{}
	for _, e := range endToEnd {
		m.set(e.name, 1, e.unit)
	}
	if err := checkMetricSet(m, false); err != nil {
		t.Fatal(err)
	}
	m.set("sim_model_h", 1, "h")
	m.set("extra", 1, "s")
	delete(m, "setup_s")
	err := checkMetricSet(m, false)
	if err == nil {
		t.Fatal("bad metric set accepted")
	}
	for _, want := range []string{"missing setup_s", "unexpected extra", "sim_model_h unit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if err := checkMetricSet(metrics{"x": {Value: math.NaN()}}, true); err == nil {
		t.Error("NaN per-layer metric accepted")
	}
}

func TestSimNamingRule(t *testing.T) {
	sim := 0
	for _, e := range endToEnd {
		if strings.HasPrefix(e.name, "sim_") {
			sim++
		}
		if strings.HasPrefix(e.unit, "sim") != strings.HasPrefix(e.name, "sim_model_h") {
			t.Errorf("%s: only sim_model_h has a simulated time unit, got %q", e.name, e.unit)
		}
	}
	if sim != 7 {
		t.Errorf("%d sim_ metrics, want 7", sim)
	}
	for _, l := range perLayerNames() {
		if strings.HasPrefix(l, "sim_") {
			t.Errorf("per-layer metric %s is real cost and must not be named sim_", l)
		}
	}
}

// TestTracedBuild builds an app through the store with the tracing
// wrapper on its Expander seam and checks the snapshot equals the
// sequential rip's, byte for byte, and the spans nest as documented.
func TestTracedBuild(t *testing.T) {
	factory := agent.Factories()["Files"]
	want, wantStats, err := ung.Rip(factory(), ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := newSuite(options{workers: 2}, &bytes.Buffer{})
	dir := t.TempDir()
	b, te, err := s.tracedBuild(modelstore.NewPersistent(dir), "Files", 0)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := ung.EncodeBinary(want)
	matches, _ := filepath.Glob(filepath.Join(dir, "Files-*.ungb"))
	if len(matches) != 1 {
		t.Fatalf("snapshot files %v", matches)
	}
	gb, err := os.ReadFile(matches[0])
	if err != nil || !bytes.Equal(wb, gb) || b.RipStats.Clicks != wantStats.Clicks {
		t.Fatalf("traced build differs from the sequential rip (clicks %d vs %d, %v)", b.RipStats.Clicks, wantStats.Clicks, err)
	}
	spans := s.rec.snapshot()
	if te.frames == 0 || len(spans) != te.frames+2 || te.ok > te.frames {
		t.Fatalf("frames %d, ok %d, spans %d", te.frames, te.ok, len(spans))
	}
	if spans[0].Name != "modelstore.build" || spans[1].Name != "ung.rip" || spans[1].Parent != spans[0].ID ||
		spans[1].Req != "Files" || spans[1].End > spans[0].End {
		t.Fatalf("build spans %+v %+v", spans[0], spans[1])
	}
	for _, sp := range spans[2:] {
		if sp.Name != "ung.expand" || sp.Parent != spans[1].ID || sp.Lane < 101 || sp.Lane > 102 || sp.Req == "" {
			t.Fatalf("unexpected span %+v", sp)
		}
	}
}

// TestTallyOracle checks that a dispatch is a failure unless its outcome
// bytes equal the cell's reference.
func TestTallyOracle(t *testing.T) {
	reg := taskpack.Builtin()
	cells := bench.GridCellsIn(reg, 1)[:2]
	outs := map[string][]agent.Outcome{
		cellKey(cells[0]): {{Task: cells[0].Task, Success: true, Steps: 4, OneShot: true}},
		cellKey(cells[1]): {{Task: cells[1].Task, Steps: 9}},
	}
	g := &grid{reg: reg, cells: cells, ref: map[string][]byte{}, outs: outs}
	for k, o := range outs {
		g.ref[k], _ = json.Marshal(o)
	}
	tl := newTally(g)
	if !tl.record(cells[0], outs[cellKey(cells[0])], nil) {
		t.Error("matching outcome rejected")
	}
	changed := []agent.Outcome{outs[cellKey(cells[1])][0]}
	changed[0].Steps++
	if tl.record(cells[1], changed, nil) {
		t.Error("changed outcome accepted")
	}
	if tl.record(cells[1], nil, os.ErrDeadlineExceeded) {
		t.Error("dispatch error accepted")
	}
	if tl.attempted != 3 || tl.failed != 2 || math.Abs(tl.okFrac()-1.0/3) > 1e-12 {
		t.Errorf("attempted %d failed %d okFrac %v", tl.attempted, tl.failed, tl.okFrac())
	}
	if len(tl.seen) != 1 {
		t.Errorf("%d cells seen, want the 1 verified", len(tl.seen))
	}
}

// buildDaemon builds dmi-serve from this checkout.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dmi-serve")
	cmd := exec.Command("go", "build", "-o", bin, "../cmd/dmi-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build dmi-serve: %v\n%s", err, out)
	}
	return bin
}

// tinyRun runs a workload for a fraction of a second and checks that it
// is correct and reports its mode's full metric set.
func tinyRun(t *testing.T, name string, trace bool, serveBin string) result {
	t.Helper()
	o := options{workload: name, seed: 3, seconds: 0.3, trace: trace, root: t.TempDir(),
		serveBin: serveBin, rate: 90, workers: 2}
	res, err := workloads[name](o, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMetricSet(res.Metrics, trace); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bin := buildDaemon(t)
	var sims []metrics
	for _, name := range []string{"offline-catalog", "online-grid", "serve-open"} {
		t.Run(name, func(t *testing.T) {
			res := tinyRun(t, name, false, bin)
			if got := res.Metrics["ok_frac"].Value; got != 1 {
				t.Errorf("ok_frac = %v", got)
			}
			if got := res.Metrics["sim_rip_clicks"].Value; got != 32083 {
				t.Errorf("sim_rip_clicks = %v, want 32083", got)
			}
			sims = append(sims, res.Metrics)
		})
	}
	// The offline sims come from the same sequential preparation rip in
	// every workload.
	if len(sims) == 3 {
		for _, k := range []string{"sim_model_h", "sim_core_tokens", "sim_rip_clicks"} {
			if sims[0][k] != sims[1][k] || sims[1][k] != sims[2][k] {
				t.Errorf("%s differs across workloads: %v %v %v", k, sims[0][k], sims[1][k], sims[2][k])
			}
		}
	}
}

func TestTinyTracedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every traced workload")
	}
	bin := buildDaemon(t)
	// On serve-open, part of each request's latency is the generator's own
	// delay between the due time and the dispatch, which no layer covers.
	minCov := map[string]float64{"offline-catalog": 0.95, "online-grid": 0.95, "serve-open": 0.7}
	for _, name := range []string{"offline-catalog", "online-grid", "serve-open"} {
		t.Run(name, func(t *testing.T) {
			res := tinyRun(t, name, true, bin)
			if cov := res.Metrics["trace.coverage_frac"].Value; cov < minCov[name] || cov > 1.0001 {
				t.Errorf("blocking-path coverage %v, want at least %v", cov, minCov[name])
			}
			if f := res.Metrics["ung.frames"].Value; f < 10000 {
				t.Errorf("ung.frames = %v", f)
			}
		})
	}
}

// TestColdPassOracle checks that the offline oracle fails a pass whose
// snapshot bytes or click count differ from the reference.
func TestColdPassOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("rips the catalog")
	}
	dir := t.TempDir()
	p, err := prepare(dir)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := referenceRips(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := refs["Files"]
	bad.snapshot = append([]byte(nil), bad.snapshot...)
	bad.snapshot[len(bad.snapshot)-1] ^= 1
	refs["Files"] = bad
	words := refs["Word"]
	words.clicks++
	refs["Word"] = words
	cal, err := newCalibrator(2)
	if err != nil {
		t.Fatal(err)
	}
	var c counts
	r, err := coldPasses(dir, refs, 2, newRand(options{seed: 1}, 1), 0, &c, cal)
	if err != nil {
		t.Fatal(err)
	}
	passes := len(r.passS)
	if passes != minPasses || c.attempted != passes*5 || c.failed != passes*2 {
		t.Fatalf("%d passes, attempted %d, failed %d; want %d, %d, %d",
			passes, c.attempted, c.failed, minPasses, minPasses*5, minPasses*2)
	}
}

func TestSampleRSS(t *testing.T) {
	s := sampleRSS("self")
	time.Sleep(120 * time.Millisecond)
	mb := s.peak()
	if math.IsNaN(mb) || mb <= 0 {
		t.Fatalf("peak RSS %v MB", mb)
	}
	if _, err := procStatusMB("self", "NoSuchField"); err == nil {
		t.Error("missing status field read without error")
	}
}

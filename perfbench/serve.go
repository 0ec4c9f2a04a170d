package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/serveproto"
	"repro/internal/taskpack"
)

// daemon is one dmi-serve subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // the process's exit status, valid once exited is closed
}

// startDaemon launches dmi-serve on a free loopback port, prewarming from
// the snapshot dir, and returns once /v1/healthz answers ready, with the
// time from process start to ready.
func startDaemon(bin, snap string) (*daemon, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("no dmi-serve binary (-serve-bin)")
	}
	// The daemon shares the machine's CPUs with the load generator; at a
	// lower priority it cannot starve the generator into sending late.
	cmd := exec.Command("nice", "-n", "10", bin, "-addr", "127.0.0.1:0", "-snapshot", snap)
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.base = <-addr:
	case <-d.exited:
		return nil, 0, fmt.Errorf("dmi-serve exited before listening: %v", d.err)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, 0, errors.New("dmi-serve did not start listening within 60s")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		var h serveproto.Health
		if err := getJSON(client, d.base+"/v1/healthz", &h); err == nil && h.OK {
			return d, time.Since(t0), nil
		}
		if time.Since(t0) > 60*time.Second {
			d.stop()
			return nil, 0, errors.New("dmi-serve not healthy within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) stats() (serveproto.StatsResponse, error) {
	var st serveproto.StatsResponse
	err := getJSON(&http.Client{Timeout: 5 * time.Second}, d.base+"/v1/stats", &st)
	return st, err
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited within 30 s. It returns the exit status.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	return d.err
}

// openResult is one open-loop run: per request, latency from its due time,
// remote dispatch time and generator lateness, plus the cell keys.
type openResult struct {
	latMS, serviceMS, lateMS []float64
	keys                     []string
	wall                     time.Duration
	inFlightMax              int64
}

// fullPasses rounds the arrivals of dur at rate to whole passes over the
// grid (at least one), so every run sends each cell equally often and the
// tail percentiles compare like with like.
func fullPasses(rate float64, dur time.Duration, cells int) int {
	passes := math.Round(rate * dur.Seconds() / float64(cells))
	if passes < 1 {
		passes = 1
	}
	return int(passes) * cells
}

// openLoop sends n Poisson arrivals at rate cells/s through d. Each
// arrival is the next cell of the seeded stream, dispatched on its own
// goroutine at its due time; latency is measured from the due time, so
// queueing behind a slow request counts. Every outcome is checked with t.
// With rec set, every request gets a root span, from its due time until its
// outcome is checked, with a "loadgen.wait" child (due → dispatch) and a
// "bench.remote_dispatch" child, and the daemon's /v1/stats is sampled
// every 50 ms for its in-flight peak.
func openLoop(d bench.Dispatcher, dm *daemon, stream *cellStream, t *tally, rate float64, n int,
	rng *rand.Rand, rec *recorder) openResult {
	due := make([]time.Duration, n)
	var at time.Duration
	for i := range due {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		due[i] = at
	}
	res := openResult{latMS: make([]float64, n), serviceMS: make([]float64, n), lateMS: make([]float64, n), keys: make([]string, n)}

	stopScrape := make(chan struct{})
	var scraped chan int64
	if rec != nil {
		scraped = make(chan int64, 1)
		go func() {
			var max int64
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopScrape:
					scraped <- max
					return
				case <-tick.C:
					if st, err := dm.stats(); err == nil && st.InFlight > max {
						max = st.InFlight
					}
				}
			}
		}()
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		at := start.Add(due[i])
		time.Sleep(time.Until(at))
		c := stream.next()
		res.keys[i] = cellKey(c)
		res.lateMS[i] = ms(time.Since(at))
		wg.Add(1)
		go func(i int, c bench.Cell, at time.Time) {
			defer wg.Done()
			t0 := time.Now()
			outs, err := d.Dispatch(ctx, c)
			t1 := time.Now()
			t.record(c, outs, err)
			res.latMS[i] = ms(t1.Sub(at))
			res.serviceMS[i] = ms(t1.Sub(t0))
			if rec != nil {
				lane := 10000 + i
				root := rec.add("request", 0, lane, cellKey(c), at, time.Now())
				rec.add("loadgen.wait", root, lane, cellKey(c), at, t0)
				rec.add("bench.remote_dispatch", root, lane, cellKey(c), t0, t1)
			}
		}(i, c, at)
	}
	wg.Wait()
	res.wall = time.Since(start)
	close(stopScrape)
	if scraped != nil {
		res.inFlightMax = <-scraped
	}
	return res
}

// tracedOpenLoop runs a traced open loop of n arrivals through remote and
// sets the wire-tier per-layer metrics from it and from the daemon's
// /v1/stats before and after it. It returns the run and the later stats.
func (s *suite) tracedOpenLoop(remote *bench.RemoteDispatcher, dm *daemon, stream *cellStream, t *tally, n int,
	rng *rand.Rand) (openResult, serveproto.StatsResponse, error) {
	before, err := dm.stats()
	if err != nil {
		return openResult{}, before, err
	}
	r := openLoop(remote, dm, stream, t, s.o.rate, n, rng, s.rec)
	after, err := dm.stats()
	if err != nil {
		return r, after, err
	}
	s.m.set("bench.remote_dispatch_ms_p50", quantile(r.serviceMS, 0.5), "ms")
	s.m.set("bench.remote_dispatch_ms_p99", quantile(r.serviceMS, 0.99), "ms")
	over := make([]float64, len(r.keys))
	for i, k := range r.keys {
		over[i] = r.serviceMS[i] - s.g.refMS[k]
	}
	s.m.set("wire.overhead_ms", median(over), "ms")
	s.m.set("bench.retries", float64(remote.Retries()), "count")
	s.m.set("dmi-serve.in_flight_max", float64(r.inFlightMax), "count")
	hits := after.Store.Hits - before.Store.Hits
	misses := after.Store.Misses - before.Store.Misses
	s.m.set("dmi-serve.hit_ratio", ratio(int(hits), int(hits+misses)), "ratio")
	s.m.set("loadgen.late_ms_p99", quantile(r.lateMS, 0.99), "ms")
	return r, after, nil
}

func newRemote(base string, g *grid, workers int) (*bench.RemoteDispatcher, error) {
	return bench.NewRemoteDispatcher([]string{base}, bench.RemoteOptions{
		InFlight: workers, Batch: 1, Pack: g.reg.Name(), PackHash: g.reg.Hash(),
	})
}

// daemonStarts is how many times serve-open starts the daemon; setup_s is
// the median start-to-ready time.
const daemonStarts = 9

// runServe is the serve-open workload.
func runServe(o options, log io.Writer) (result, error) {
	dir, err := workDir(o)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	p, err := prepare(dir)
	if err != nil {
		return result{}, err
	}
	snap := p.Snap
	var modelS []float64
	var models *agent.Models
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		models, _, err = warmModels(snap, o.workers)
		if err != nil {
			return result{}, err
		}
		modelS = append(modelS, time.Since(t0).Seconds())
	}
	reg := taskpack.Builtin()
	local := bench.NewLocalDispatcherIn(reg, models, 1)
	g, err := newGrid(func(c bench.Cell) ([]agent.Outcome, error) { return local.Dispatch(context.Background(), c) })
	if err != nil {
		return result{}, err
	}

	// Set-up: daemon start until /v1/healthz is ready, several times.
	var setups []float64
	var dm *daemon
	for i := 0; i < daemonStarts; i++ {
		if dm != nil {
			if err := dm.stop(); err != nil {
				return result{}, fmt.Errorf("dmi-serve stop: %w", err)
			}
		}
		var ready time.Duration
		dm, ready, err = startDaemon(o.serveBin, snap)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, ready.Seconds())
	}
	defer dm.stop()

	remote, err := newRemote(dm.base, g, o.workers)
	if err != nil {
		return result{}, err
	}
	defer remote.Close()
	rng := newRand(o, 2)
	stream := newCellStream(g.cells, newRand(o, 1))
	dur := time.Duration(o.seconds * float64(time.Second))

	if o.trace {
		return traceServe(o, log, dm, remote, stream, g, models, dir, snap, dur, rng)
	}

	t := newTally(g)
	rss := sampleRSS(strconv.Itoa(dm.cmd.Process.Pid))
	r := openLoop(remote, dm, stream, t, o.rate, fullPasses(o.rate, dur, len(g.cells)), rng, nil)
	peakRSS := rss.peak()
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("model_s", median(modelS), "s")
	setLatency(m, r.latMS, float64(len(r.latMS))/r.wall.Seconds())
	m.set("ok_frac", t.okFrac(), "ratio")
	m.set("peak_rss_mb", peakRSS, "MB")
	p.sim().set(m)
	t.setSessionSims(m)
	if err := dm.stop(); err != nil {
		return result{}, fmt.Errorf("dmi-serve drain: %w", err)
	}
	if retries := remote.Retries(); retries > 0 {
		fmt.Fprintf(log, "perfbench: %d remote retries\n", retries)
	}
	return t.result(m), nil
}

// traceServe is serve-open's traced run: an untraced and a traced open
// loop of half the time each, then the probe suite.
func traceServe(o options, log io.Writer, dm *daemon, remote *bench.RemoteDispatcher, stream *cellStream, g *grid,
	models *agent.Models, dir, snap string, dur time.Duration, rng *rand.Rand) (result, error) {
	s := newSuite(o, log)
	s.models, s.g = models, g
	t := newTally(g)
	n := fullPasses(o.rate, dur/2, len(g.cells))
	plain := openLoop(remote, dm, stream, t, o.rate, n, rng, nil)

	r0, w := readRuntime(), window{from: s.rec.now()}
	traced, after, err := s.tracedOpenLoop(remote, dm, stream, t, n, rng)
	if err != nil {
		return result{}, err
	}
	w.to = s.rec.now()
	r1 := readRuntime()
	s.m.set("go.gc_cpu_frac", gcFrac(r0, r1), "ratio")
	s.m.set("go.alloc_mb_per_op", float64(r1.allocBytes-r0.allocBytes)/1e6/float64(n), "MB")
	s.m.set("modelstore.hit_ratio", after.WarmHitRatio, "ratio")
	s.m.set("modelstore.snapshot_loads", float64(after.Store.SnapshotLoads), "count")
	s.m.set("bench.dispatch_ms", median(mapValues(g.refMS)), "ms")
	// Requests overlap, so the blocking path is per request: remote
	// dispatch must account for each request's time from its due time
	// until its outcome is checked; the generator's lateness and the
	// check are the benchmark's own.
	cov := requestCoverage(s.rec.snapshot(), "request", []window{w})
	overhead := median(traced.latMS)/median(plain.latMS) - 1

	refs, err := snapshotFiles(snap)
	if err != nil {
		return result{}, err
	}
	if err := s.ripProbe(dir, refs); err != nil {
		return result{}, err
	}
	s.probes()
	if err := s.finish([]window{w}, nil, nil, cov, overhead); err != nil {
		return result{}, err
	}
	s.merge(&t.counts)
	return s.result(), nil
}

// remoteProbe measures the wire tier for the workloads that do not run it:
// a daemon prewarmed from snap takes a short traced open loop at the
// serve-open rate, with every outcome checked against the grid reference.
func (s *suite) remoteProbe(snap string) error {
	dm, _, err := startDaemon(s.o.serveBin, snap)
	if err != nil {
		return err
	}
	defer dm.stop()
	remote, err := newRemote(dm.base, s.g, s.o.workers)
	if err != nil {
		return err
	}
	defer remote.Close()
	t := newTally(s.g)
	n := int(2 * s.o.rate) // two seconds of arrivals
	if _, _, err := s.tracedOpenLoop(remote, dm, newCellStream(s.g.cells, newRand(s.o, 3)), t, n, newRand(s.o, 4)); err != nil {
		return err
	}
	s.merge(&t.counts)
	if err := dm.stop(); err != nil {
		return fmt.Errorf("dmi-serve drain: %w", err)
	}
	return nil
}

// snapshotFiles reads the catalog's snapshot files from a persistent
// store's dir, keyed by app.
func snapshotFiles(dir string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, app := range agent.AppNames() {
		matches, err := filepath.Glob(filepath.Join(dir, app+"-*.ungb"))
		if err != nil {
			return nil, err
		}
		if len(matches) != 1 {
			return nil, fmt.Errorf("snapshot for %s: %d files", app, len(matches))
		}
		data, err := os.ReadFile(matches[0])
		if err != nil {
			return nil, err
		}
		out[app] = data
	}
	return out, nil
}

func mapValues(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

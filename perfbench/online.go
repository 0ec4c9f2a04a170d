package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/taskpack"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. Each repetition starts after a garbage collection, so it does
// not pay for the previous one's garbage.
const setupReps = 61

// closedResult is one closed-loop run: per-cell latencies and the run's
// wall time.
type closedResult struct {
	latMS []float64
	wall  time.Duration
}

// onlineSegment is the length of one calibrated stretch of online-grid's
// closed loop.
const onlineSegment = 2 * time.Second

// perSecond is the run's completion rate.
func (r closedResult) perSecond() float64 { return float64(len(r.latMS)) / r.wall.Seconds() }

// closedLoop runs workers goroutines, each dispatching the stream's next
// cell as soon as its previous one returned, until dur has passed. Every
// outcome is checked with t. With rec set, each cell gets a "loop.cell"
// span (the dispatch plus the check) with a "bench.dispatch" child, on the
// worker's lane (1..workers).
func closedLoop(d bench.Dispatcher, stream *cellStream, t *tally, workers int, dur time.Duration, rec *recorder) closedResult {
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(dur)
	lat := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c := stream.next()
				var root, id int
				if rec != nil {
					root = rec.begin("loop.cell", 0, w+1, cellKey(c))
					id = rec.begin("bench.dispatch", root, w+1, cellKey(c))
				}
				t0 := time.Now()
				outs, err := d.Dispatch(ctx, c)
				el := time.Since(t0)
				if rec != nil {
					rec.end(id)
				}
				t.record(c, outs, err)
				if rec != nil {
					rec.end(root)
				}
				lat[w] = append(lat[w], ms(el))
			}
		}(w)
	}
	wg.Wait()
	r := closedResult{wall: time.Since(start)}
	for w := range lat {
		r.latMS = append(r.latMS, lat[w]...)
	}
	return r
}

// runOnline is the online-grid workload.
func runOnline(o options, log io.Writer) (result, error) {
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

	// Set-up: snapshot-backed warm of the catalog plus the dispatcher,
	// several times.
	reg := taskpack.Builtin()
	var setups []float64
	var models *agent.Models
	var local *bench.LocalDispatcher
	var storeHit float64
	var storeLoads int64
	cal, err := newCalibrator(o.workers)
	if err != nil {
		return result{}, err
	}
	setupF, err := cal.solo().repeat(setupReps, 10, func() error {
		runtime.GC()
		t0 := time.Now()
		m, store, err := warmModels(snap, o.workers)
		if err != nil {
			return err
		}
		local = bench.NewLocalDispatcherIn(reg, m, 1)
		setups = append(setups, time.Since(t0).Seconds())
		models = m
		st := store.Stats()
		storeHit, storeLoads = ratio(int(st.Hits), int(st.Hits+st.Misses)), st.SnapshotLoads
		return nil
	})
	if err != nil {
		return result{}, err
	}
	g, err := newGrid(runCellRef(reg, models))
	if err != nil {
		return result{}, err
	}
	stream := newCellStream(g.cells, newRand(o, 1))
	dur := time.Duration(o.seconds * float64(time.Second))
	t := newTally(g)

	if !o.trace {
		// The closed loop runs in segments, each bracketed by calibration
		// samples; every latency is scaled by its segment's factor, and
		// sessions_per_s is the median of the segments' scaled rates.
		// After each segment one snapshot-backed warm, bracketed by
		// one-lane samples, is timed: model_s is their scaled median, so
		// it spans the whole run like the loop's metrics, where the
		// set-up's warms span only its first seconds.
		rss := sampleRSS("self")
		solo := cal.solo()
		var latMS, rates, speeds, modelS, warmF []float64
		before := cal.sample()
		start := time.Now()
		for len(rates) == 0 || time.Since(start) < dur {
			r := closedLoop(local, stream, t, o.workers, onlineSegment, nil)
			after := cal.sample()
			f := speed(before, after)
			before = after
			for _, l := range r.latMS {
				latMS = append(latMS, l*f)
			}
			rates, speeds = append(rates, r.perSecond()/f), append(speeds, f)

			s0 := solo.sample()
			t0 := time.Now()
			if _, _, err := warmModels(snap, o.workers); err != nil {
				return result{}, err
			}
			modelS = append(modelS, time.Since(t0).Seconds())
			warmF = append(warmF, speed(s0, solo.sample()))
		}
		m := metrics{}
		m.set("peak_rss_mb", rss.peak(), "MB")
		m.set("setup_s", median(scaled(setups, setupF)), "s")
		m.set("model_s", median(scaled(modelS, warmF)), "s")
		setLatency(m, latMS, median(rates))
		fmt.Fprintf(log, "online-grid: measured setup_s %.4f s, model_s %.4f s; median calibration factor %.4f over %d segments\n",
			median(setups), median(modelS), median(speeds), len(rates))
		m.set("ok_frac", t.okFrac(), "ratio")
		p.sim().set(m)
		t.setSessionSims(m)
		return t.result(m), nil
	}

	// Untraced and traced segments alternate, so machine drift hits both
	// alike; the overhead is the median ratio of paired segment rates.
	s := newSuite(o, log)
	s.models, s.g = models, g
	seg := max(dur/20, 200*time.Millisecond)
	var ws []window
	var ratios, tracedLat []float64
	var rt runtimeSample
	start := time.Now()
	for len(ws) == 0 || time.Since(start) < dur {
		plain := closedLoop(local, stream, t, o.workers, seg, nil)
		r0, w := readRuntime(), window{from: s.rec.now()}
		traced := closedLoop(local, stream, t, o.workers, seg, s.rec)
		w.to = s.rec.now()
		rt, ws = rt.plus(r0, readRuntime()), append(ws, w)
		ratios = append(ratios, plain.perSecond()/traced.perSecond())
		tracedLat = append(tracedLat, traced.latMS...)
	}
	s.merge(&t.counts)
	s.m.set("bench.dispatch_ms", median(tracedLat), "ms")
	s.m.set("go.gc_cpu_frac", gcFrac(runtimeSample{}, rt), "ratio")
	s.m.set("go.alloc_mb_per_op", float64(rt.allocBytes)/1e6/float64(len(tracedLat)), "MB")
	s.m.set("modelstore.hit_ratio", storeHit, "ratio")
	s.m.set("modelstore.snapshot_loads", float64(storeLoads), "count")

	refs, err := snapshotFiles(snap)
	if err != nil {
		return result{}, err
	}
	if err := s.ripProbe(dir, refs); err != nil {
		return result{}, err
	}
	s.probes()
	if err := s.remoteProbe(snap); err != nil {
		return result{}, err
	}
	lanes := make([]int, o.workers)
	for i := range lanes {
		lanes[i] = i + 1
	}
	cov, laneSelf := coverage(s.rec.snapshot(), lanes, ws)
	if err := s.finish(ws, lanes, laneSelf, cov, median(ratios)-1); err != nil {
		return result{}, err
	}
	return s.result(), nil
}

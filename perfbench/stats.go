package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. It returns NaN for an empty slice
// and never reorders xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procStatusMB reads one kB field of /proc/<pid>/status, such as "VmRSS",
// in MB; pid "self" reads this process.
func procStatusMB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, field+":"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s not found for pid %s", field, pid)
}

// rssSampler samples a process's resident set every 50 ms while a measured
// phase runs. A single high-water mark (VmHWM) depends on where one garbage
// collection happened to land: on online-grid it read 35 MB in most runs
// and 47 MB in some. The median over 1 s windows of each window's peak is
// the steady figure.
type rssSampler struct {
	stop chan struct{}
	res  chan float64
}

// sampleRSS starts sampling pid's VmRSS.
func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), res: make(chan float64, 1)}
	go func() {
		start := time.Now()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		peaks := map[int]float64{}
		sample := func() {
			if mb, err := procStatusMB(pid, "VmRSS"); err == nil {
				w := int(time.Since(start) / time.Second)
				if mb > peaks[w] {
					peaks[w] = mb
				}
			}
		}
		sample()
		for {
			select {
			case <-s.stop:
				sample()
				var xs []float64
				for _, p := range peaks {
					xs = append(xs, p)
				}
				s.res <- median(xs)
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the median over 1 s windows of each
// window's peak resident set, in MB.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.res
}

// runtimeSample is the slice of runtime/metrics the benchmark reads: GC
// CPU, total CPU, and cumulative heap allocation.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != rtmetrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	return runtimeSample{gcCPU: f(0), totalCPU: f(1), allocBytes: u(2)}
}

// measureAllocs runs fn once between two ReadMemStats calls and returns
// its duration and heap allocation count and bytes. runtime/metrics would
// not do here: it counts a small allocation only when its P's cached span
// is refilled, so a single call's count could be off by a span per size
// class. ReadMemStats stops the world and flushes those caches, which is
// too costly for every span but exact for a probe.
func measureAllocs(fn func()) (time.Duration, uint64, uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return d, b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// plus adds the change from a to b to r, so r sums several phases.
func (r runtimeSample) plus(a, b runtimeSample) runtimeSample {
	return runtimeSample{gcCPU: r.gcCPU + b.gcCPU - a.gcCPU, totalCPU: r.totalCPU + b.totalCPU - a.totalCPU,
		allocBytes: r.allocBytes + b.allocBytes - a.allocBytes}
}

// gcFrac is the share of process CPU spent in the GC between two samples.
func gcFrac(a, b runtimeSample) float64 {
	total := b.totalCPU - a.totalCPU
	if total <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / total
}

package main

import (
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Machine-speed calibration.
//
// The benchmark runs on shared hosts whose speed drifts: on the 2-vCPU VM
// it was built on, the same catalog pass took 1.1 s in one minute and
// 1.6 s a few minutes later, with CPU time tracking wall time (the CPU
// itself got slower, so neither CPU time nor steal time accounts for it),
// and runs on another host of the same kind spread by 40% between the
// first and third quartile. Medians over a 30 s run cannot remove drift
// that lasts minutes. So every timed stretch of work is bracketed by
// samples of a fixed reference workload owned by this file, and every
// reported time is scaled to the machine speed at which one chunk of that
// workload takes calibRefS on one goroutine:
//
//	reported = measured × calibRefS / calibration
//
// where calibration is the mean of the samples just before and after the
// stretch. A change to the program moves the measured time and not the
// calibration, so it shows in full; a change in machine speed moves both
// and cancels. The reference workload does not allocate, so the program's
// heap and garbage collector cannot slow it, and it runs on as many
// goroutines as the workload has workers, so it sees the same share of the
// machine: all workers for the measured loops, one for the set-up, which
// runs on one goroutine at a time. The measured figures and the
// calibration factors go to standard error.

// calibRefS is the reference time of one calibration chunk on one
// goroutine, in seconds: about its median on the VM the benchmark was built
// on (2 vCPUs of an Intel Xeon at 2.1 GHz) when that VM was otherwise idle.
// It only sets the scale of the reported times.
const calibRefS = 0.00025

const (
	calibWindow  = 30 * time.Millisecond // one timed window of a sample
	calibWindows = 5                     // windows per sample; the sample is their median

	calibRing       = 1 << 19 // pointer-chase ring entries per lane (2 MiB)
	calibKeys       = 1 << 12 // map keys per lane
	calibBytes      = 1 << 14 // hashed bytes per lane
	calibSteps      = 1 << 12 // ring steps per chunk
	calibHashRounds = 4       // passes over the buffer per chunk
)

// calibLane is one goroutine's fixed reference data: a random cyclic
// permutation to chase (cache and memory latency), a string-keyed map to
// probe (hashing and branches, like the program's lookups), and a buffer
// to hash (plain arithmetic).
type calibLane struct {
	ring  []uint32
	keys  []string
	table map[string]uint64
	buf   []byte
	sink  uint64 // keeps the chunks' results alive
}

// newCalibLane builds a lane. Its ring lives outside the Go heap, so it
// neither adds to the live heap that paces the program's garbage collector
// nor gets scanned by it; it still adds calibRing×4 bytes to the resident
// set.
func newCalibLane(rng *rand.Rand) (calibLane, error) {
	mem, err := syscall.Mmap(-1, 0, calibRing*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return calibLane{}, err
	}
	l := calibLane{ring: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibRing),
		table: make(map[string]uint64, calibKeys), buf: make([]byte, calibBytes)}
	// Sattolo's shuffle: one cycle through every entry.
	for i := range l.ring {
		l.ring[i] = uint32(i)
	}
	for i := len(l.ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		l.ring[i], l.ring[j] = l.ring[j], l.ring[i]
	}
	for i := 0; i < calibKeys; i++ {
		k := "control/" + string(rune('a'+i%26)) + "/" + time.Duration(rng.Int63n(1<<40)).String()
		l.keys = append(l.keys, k)
		l.table[k] = uint64(i)
	}
	rng.Read(l.buf)
	return l, nil
}

// chunk runs one fixed slice of the reference workload.
func (l *calibLane) chunk() uint64 {
	var acc uint64
	i := uint32(0)
	for k := 0; k < calibSteps; k++ {
		i = l.ring[i]
		acc += uint64(i)
	}
	for _, k := range l.keys {
		acc += l.table[k]
	}
	h := uint64(14695981039346656037)
	for r := 0; r < calibHashRounds; r++ {
		for _, b := range l.buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	return acc + h
}

// calibrator times the reference workload on a fixed number of goroutines.
// Its data is the same in every run, whatever the seed.
type calibrator struct {
	lanes []calibLane
}

func newCalibrator(workers int) (*calibrator, error) {
	rng := rand.New(rand.NewSource(20260417))
	c := &calibrator{}
	for w := 0; w < max(workers, 1); w++ {
		l, err := newCalibLane(rng)
		if err != nil {
			return nil, err
		}
		c.lanes = append(c.lanes, l)
	}
	c.sample() // warm caches and the goroutines' stacks
	return c, nil
}

// sample finishes any garbage collection in progress, then times
// calibWindows windows in which every lane runs chunks back to back until
// the window closes. A window's figure is the lanes' summed time over the
// chunks they finished, the time of one chunk on one goroutine at the
// throughput the machine gave the whole pool; the sample is the median
// window, in seconds.
func (c *calibrator) sample() float64 {
	runtime.GC()
	windows := make([]float64, calibWindows)
	busy := make([]time.Duration, len(c.lanes))
	chunks := make([]int, len(c.lanes))
	for r := range windows {
		var wg sync.WaitGroup
		deadline := time.Now().Add(calibWindow)
		for i := range c.lanes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				var acc uint64
				n := 0
				for n == 0 || time.Now().Before(deadline) {
					acc += c.lanes[i].chunk()
					n++
				}
				busy[i], chunks[i] = time.Since(t0), n
				c.lanes[i].sink += acc
			}(i)
		}
		wg.Wait()
		var b time.Duration
		n := 0
		for i := range busy {
			b, n = b+busy[i], n+chunks[i]
		}
		windows[r] = b.Seconds() / float64(n)
	}
	return median(windows)
}

// solo is a calibrator on c's first lane alone, for work that keeps one
// goroutine busy, such as the set-up.
func (c *calibrator) solo() *calibrator { return &calibrator{lanes: c.lanes[:1]} }

// speed is the scale factor calibRefS / calibration for a stretch of work
// bracketed by the calibration samples before and after: measured times
// are multiplied by it, rates divided by it.
func speed(before, after float64) float64 { return calibRefS / ((before + after) / 2) }

// repeat calls fn n times in blocks of block calls, with a calibration
// sample before the first block and after each, and returns each call's
// calibration factor: its block's.
func (c *calibrator) repeat(n, block int, fn func() error) ([]float64, error) {
	factors := make([]float64, 0, n)
	before := c.sample()
	for len(factors) < n {
		k := min(block, n-len(factors))
		for i := 0; i < k; i++ {
			if err := fn(); err != nil {
				return nil, err
			}
		}
		after := c.sample()
		for i, f := 0, speed(before, after); i < k; i++ {
			factors = append(factors, f)
		}
		before = after
	}
	return factors, nil
}

// scaled returns xs[i] × factors[i] for every i.
func scaled(xs, factors []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * factors[i]
	}
	return out
}

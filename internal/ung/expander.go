package ung

import (
	"sync"
	"time"

	"repro/internal/appkit"
)

// ExpandResult is one expansion delivered back to the coordinator. Err is
// nil for every local expansion; a remote expander reports transport and
// protocol failures here (a frame that could not be expanded anywhere).
type ExpandResult struct {
	Expansion Expansion
	Err       error
}

// ExpanderStats is the instance-side work an expander performed over its
// lifetime, folded into the coordinator's Stats after Close.
type ExpanderStats struct {
	// Clicks and Snapshots total the instance work across all expansions,
	// including restores and click-path replays.
	Clicks    int
	Snapshots int
	// Workers is the pool width (goroutines for a local pool, total remote
	// in-flight capacity for a sharded one).
	Workers int
	// Longest is the busiest single worker's simulated clock — the
	// wall-clock analog when each worker drives its own machine.
	Longest time.Duration
}

// Expander runs frame expansions on behalf of a rip coordinator. Expand is
// asynchronous: it returns immediately with a buffered channel that will
// receive exactly one result, so the coordinator can dispatch every stacked
// frame speculatively and consume results in LIFO order. Implementations
// must never block the sender on the coordinator (the channel is buffered by
// the implementation) and must tolerate results that are never read.
//
// Close stops the expander and reports its lifetime stats. In-flight
// expansions run to completion before Close returns (their work is counted);
// undispatched ones are dropped — their buffered result channels are simply
// garbage collected, so an aborted rip leaks neither goroutines nor
// channels. Close is idempotent.
type Expander interface {
	Expand(ctx string, f Frame) <-chan ExpandResult
	Close() ExpanderStats
}

// LocalExpander is the in-process expander: a pool of worker goroutines,
// each driving its own throwaway application instance built by factory.
// This is the PR-1 rip pool behind the Expander seam.
type LocalExpander struct {
	q        *jobQueue
	wg       sync.WaitGroup
	wstats   []Stats
	welapsed []time.Duration

	closeOnce sync.Once
	stats     ExpanderStats
}

// NewLocalExpander starts workers goroutines, each on a fresh instance.
func NewLocalExpander(factory func() *appkit.App, workers int) *LocalExpander {
	if workers < 1 {
		workers = 1
	}
	le := &LocalExpander{
		q:        newJobQueue(),
		wstats:   make([]Stats, workers),
		welapsed: make([]time.Duration, workers),
	}
	for i := 0; i < workers; i++ {
		le.wg.Add(1)
		go func(i int) {
			defer le.wg.Done()
			app := factory()
			sc := newScratch()
			t0 := app.Desk.Clock().Now()
			for {
				j, ok := le.q.pop()
				if !ok {
					break
				}
				j.done <- ExpandResult{Expansion: expand(app, j.ctx, j.f, &le.wstats[i], sc)}
			}
			le.welapsed[i] = app.Desk.Clock().Now() - t0
		}(i)
	}
	return le
}

// Expand queues the frame for the pool and returns its result channel.
func (le *LocalExpander) Expand(ctx string, f Frame) <-chan ExpandResult {
	j := &ripJob{ctx: ctx, f: f, done: make(chan ExpandResult, 1)}
	le.q.push(j)
	return j.done
}

// Close drains the pool: undispatched jobs are dropped, in-flight ones run
// to completion, and the workers' accumulated instance work is totaled.
func (le *LocalExpander) Close() ExpanderStats {
	le.closeOnce.Do(func() {
		le.q.close()
		le.wg.Wait()
		es := ExpanderStats{Workers: len(le.wstats)}
		for i := range le.wstats {
			es.Clicks += le.wstats[i].Clicks
			es.Snapshots += le.wstats[i].Snapshots
			if le.welapsed[i] > es.Longest {
				es.Longest = le.welapsed[i]
			}
		}
		le.stats = es
	})
	return le.stats
}

// ripJob is one frame expansion dispatched to the worker pool.
type ripJob struct {
	ctx  string
	f    Frame
	done chan ExpandResult // buffered: workers never block on the coordinator
}

// jobQueue is a LIFO work queue. LIFO matters: the coordinator consumes
// results in stack order, so the most recently pushed job is the one it will
// wait on soonest.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*ripJob
	closed bool
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *jobQueue) push(j *ripJob) {
	q.mu.Lock()
	q.jobs = append(q.jobs, j)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until a job is available or the queue is closed.
func (q *jobQueue) pop() (*ripJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.jobs) == 0 {
		return nil, false
	}
	j := q.jobs[len(q.jobs)-1]
	q.jobs = q.jobs[:len(q.jobs)-1]
	return j, true
}

// close wakes every worker and drops undispatched jobs (relevant only when
// the coordinator aborts on the node limit).
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.jobs = nil
	q.mu.Unlock()
	q.cond.Broadcast()
}

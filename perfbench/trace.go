package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Lane names the
// goroutine (or request) the call ran on: a child's time is subtracted from
// its parent's self time only when both ran on the same lane, because a
// call on another goroutine does not block the parent.
type span struct {
	ID      int
	Parent  int // 0 = root
	Name    string
	Lane    int
	Req     string // request id: a cell, frame or app
	Start   time.Duration
	End     time.Duration
	AllocKB float64 // process-wide heap allocation during the span
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out after the run.
// The zero value is not usable; construct with newRecorder.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	alloc []uint64 // heap allocation at span start, by ID-1
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the time since the recorder started, the clock of its spans.
func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, lane int, req string) int {
	a := readRuntime().allocBytes
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Lane: lane, Req: req, Start: now, End: -1})
	r.alloc = append(r.alloc, a)
	return len(r.spans)
}

// end closes the span opened by begin and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0)
	a := readRuntime().allocBytes
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	s.AllocKB = float64(a-r.alloc[id-1]) / 1024
	return s.dur()
}

// add records a span whose interval was measured elsewhere (for example a
// request's wait between its due time and its dispatch).
func (r *recorder) add(name string, parent, lane int, req string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Lane: lane, Req: req,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	r.alloc = append(r.alloc, 0)
	return len(r.spans)
}

// snapshot returns the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps span id to self time: its duration minus the durations of
// its same-lane children.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	lane := make(map[int]int, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur()
		lane[s.ID] = s.Lane
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if l, ok := lane[s.Parent]; ok && l == s.Lane {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layers are the repository's modules, plus "go" for the runtime. A span
// named "<layer>.<call>" times a call into that layer; every other span (a
// pass, a loop iteration, a request, the generator's wait, a probe) is the
// benchmark's own, and its self time is time no layer accounts for.
var layers = []string{"ung", "appkit", "uia", "forest", "describe", "modelstore", "osworld",
	"agent", "core", "bench", "serveproto", "dmi-serve", "go"}

func isLayerSpan(name string) bool {
	layer, _, ok := strings.Cut(name, ".")
	return ok && slices.Contains(layers, layer)
}

// window is one traced phase of a run, in recorder time. A traced run
// alternates traced and untraced phases, so machine drift hits both alike.
type window struct{ from, to time.Duration }

func (w window) holds(s span) bool { return s.Start >= w.from && s.End <= w.to }

// wall is the windows' summed length.
func wall(ws []window) time.Duration {
	var d time.Duration
	for _, w := range ws {
		d += w.to - w.from
	}
	return d
}

func inAny(ws []window, s span) bool {
	for _, w := range ws {
		if w.holds(s) {
			return true
		}
	}
	return false
}

// layerSelf sums, per lane, the self time of the layer spans that lie
// within one of the windows.
func layerSelf(spans []span, ws []window) map[int]time.Duration {
	self := selfTimes(spans)
	out := make(map[int]time.Duration)
	for _, s := range spans {
		if isLayerSpan(s.Name) && inAny(ws, s) {
			out[s.Lane] += self[s.ID]
		}
	}
	return out
}

// layerRow is one line of the per-layer summary.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	SelfMS  float64 `json:"self_ms"`
	TotalMS float64 `json:"total_ms"`
	AllocKB float64 `json:"alloc_kb"`
}

// summarize groups spans by name: count, summed self time, summed duration
// and summed allocation, sorted by self time, largest first.
func summarize(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.SelfMS += ms(self[s.ID])
		r.TotalMS += ms(s.dur())
		r.AllocKB += s.AllocKB
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// spanDurations returns the durations, in ms, of the spans with the name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event, so trace files
// open in chrome://tracing or Perfetto.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans as a trace-event JSON file.
func writeTrace(w io.Writer, spans []span) error {
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.dur()), PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "alloc_kb": s.AllocKB},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// traceReport is the per-workload summary written next to the trace file.
type traceReport struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// WallMS is the traced phases' summed wall time; BlockingLanes are the
	// lanes whose layer self times must add up to it (one per closed-loop
	// worker), and LaneSelfMS holds those sums.
	WallMS        float64            `json:"wall_ms"`
	BlockingLanes []int              `json:"blocking_lanes"`
	LaneSelfMS    map[string]float64 `json:"lane_self_ms"`
	CoverageFrac  float64            `json:"coverage_frac"`
	OverheadFrac  float64            `json:"overhead_frac"`
	Layers        []layerRow         `json:"layers"`
}

// writeTraceFiles writes <dir>/<workload>-seed<N>.trace.json and
// <dir>/<workload>-seed<N>.layers.json and prints the summary to log.
func writeTraceFiles(dir string, rep traceReport, spans []span, log io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s/%s-seed%d", dir, rep.Workload, rep.Seed)
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := writeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.json", data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "perfbench: trace %s.trace.json, summary %s.layers.json\n", base, base)
	fmt.Fprintf(log, "perfbench: traced wall %.1f ms, blocking-path coverage %.4f, tracing overhead %+.4f\n",
		rep.WallMS, rep.CoverageFrac, rep.OverheadFrac)
	fmt.Fprintf(log, "%-28s %8s %12s %12s %12s\n", "layer", "count", "self_ms", "total_ms", "alloc_kb")
	for _, r := range rep.Layers {
		fmt.Fprintf(log, "%-28s %8d %12.2f %12.2f %12.1f\n", r.Name, r.Count, r.SelfMS, r.TotalMS, r.AllocKB)
	}
	return nil
}

// coverage is the layer spans' summed self time on the blocking lanes over
// the traced windows, as a share of lanes × the windows' wall time: 1 means
// calls into the layers account for every moment of the traced phases on
// every blocking lane, and the benchmark's own work (its loop, its oracle
// checks) and idle gaps lower it.
func coverage(spans []span, lanes []int, ws []window) (float64, map[string]float64) {
	per := layerSelf(spans, ws)
	out := make(map[string]float64, len(lanes))
	var sum time.Duration
	for _, l := range lanes {
		sum += per[l]
		out[fmt.Sprint(l)] = ms(per[l])
	}
	if wall(ws) <= 0 || len(lanes) == 0 {
		return 0, out
	}
	return float64(sum) / float64(wall(ws)*time.Duration(len(lanes))), out
}

// requestCoverage is coverage for overlapping requests, each on its own
// lane under a root span named root: the layer spans' summed self time on
// those lanes over the roots' summed duration.
func requestCoverage(spans []span, root string, ws []window) float64 {
	per := layerSelf(spans, ws)
	var layer, total time.Duration
	for _, s := range spans {
		if s.Name == root && inAny(ws, s) {
			layer += per[s.Lane]
			total += s.dur()
		}
	}
	if total <= 0 {
		return 0
	}
	return float64(layer) / float64(total)
}

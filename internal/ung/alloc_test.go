package ung

import (
	"reflect"
	"testing"

	"repro/internal/office/word"
)

// expandAllocBound caps the heap allocations of one steady-state
// ExpandFrame: the reveals slice is the only one (1 measured for frames
// that reveal controls, 0 for those that do not), doubled for headroom.
// Restore, replay, both captures and the difference run in reused scratch.
const expandAllocBound = 2

// TestExpandFrameSteadyStateAllocs is the deterministic guard on the rip
// hot path: on a warm Word instance, one frame expansion allocates a small
// constant — the reveals it returns — whatever the size of the snapshots
// it captures and differences, and however long the replayed click path.
func TestExpandFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	app := word.New().App
	type probe struct {
		f       Frame
		reveals int
		screen  int // elements on screen once the frame's control is clicked
	}
	run := func(f Frame) probe {
		exp := ExpandFrame(app, "", f) // warms the scratch pool and ID caches
		return probe{f: f, reveals: len(exp.Reveals), screen: len(app.Desk.Snapshot())}
	}

	// Every control on the initial screen, then frames one and two clicks
	// down: the reveals of the widest top-level frame (the largest
	// screens), and the first two-step chain found beneath any frame.
	var st Stats
	restore(app, "")
	snap := capture(app, &st)
	var probes []probe
	widest := 0
	for _, e := range snap {
		probes = append(probes, run(Frame{ID: e.ControlID()}))
		if p := probes[len(probes)-1]; p.reveals > probes[widest].reveals {
			widest = len(probes) - 1
		}
	}
	below := func(parent Frame, limit int) []Frame {
		path := append(append([]string(nil), parent.Path...), parent.ID)
		var out []Frame
		for _, r := range ExpandFrame(app, "", parent).Reveals {
			if len(out) == limit {
				break
			}
			out = append(out, Frame{ID: r.ID, Path: path})
		}
		return out
	}
	for _, f := range below(probes[widest].f, 4) {
		probes = append(probes, run(f))
	}
	deep := false
	for _, p := range probes[:len(snap)] {
		for _, f1 := range below(p.f, 8) {
			if f2 := below(f1, 1); len(f2) > 0 {
				probes = append(probes, run(f1), run(f2[0]))
				deep = true
				break
			}
		}
		if deep {
			break
		}
	}
	if !deep {
		t.Fatal("found no two-step frame to probe")
	}

	minScreen, maxScreen := probes[0].screen, probes[0].screen
	for _, p := range probes {
		minScreen = min(minScreen, p.screen)
		maxScreen = max(maxScreen, p.screen)
		allocs := testing.AllocsPerRun(5, func() { ExpandFrame(app, "", p.f) })
		if allocs > expandAllocBound {
			t.Errorf("ExpandFrame(%q, path %d) = %.1f allocs with %d reveals on a %d-element screen, want <= %d",
				p.f.ID, len(p.f.Path), allocs, p.reveals, p.screen, expandAllocBound)
		}
	}
	// The bound held across screens of very different sizes: allocations
	// do not grow with snapshot size.
	if maxScreen < 2*minScreen {
		t.Fatalf("probed screens span %d..%d elements; want a wide spread", minScreen, maxScreen)
	}
	t.Logf("%d frames, screens of %d..%d elements, widest %q with %d reveals",
		len(probes), minScreen, maxScreen, probes[widest].f.ID, probes[widest].reveals)
}

// TestExpansionsOwnTheirReveals pins the other half of the scratch rule:
// scratch never escapes expand. Expansions kept across later expansions on
// the same instance (which reuse the scratch) must equal the same
// expansions computed on a fresh instance.
func TestExpansionsOwnTheirReveals(t *testing.T) {
	warm, cold := word.New().App, word.New().App
	var st Stats
	restore(warm, "")
	var frames []Frame
	for _, e := range capture(warm, &st) {
		frames = append(frames, Frame{ID: e.ControlID()})
	}
	kept := make([]Expansion, len(frames))
	for i, f := range frames {
		kept[i] = ExpandFrame(warm, "", f)
	}
	for i, f := range frames {
		want := ExpandFrame(cold, "", f)
		if !reflect.DeepEqual(kept[i].Reveals, want.Reveals) || kept[i].Outcome != want.Outcome {
			t.Fatalf("frame %q: kept expansion changed after later expansions reused the scratch", f.ID)
		}
	}
}

package uia

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestWindowStack(t *testing.T) {
	d := NewDesktop()
	var events []WindowEvent
	d.Listen(func(ev WindowEvent) { events = append(events, ev) })

	w1 := NewElement("w1", "Main", WindowControl)
	w2 := NewElement("w2", "Dialog", WindowControl)
	d.OpenWindow(w1)
	d.OpenWindow(w2)
	if d.TopWindow() != w2 {
		t.Fatal("TopWindow should be the dialog")
	}
	d.CloseWindow(w2)
	if d.TopWindow() != w1 {
		t.Fatal("TopWindow should fall back to main")
	}
	if len(events) != 3 || !events[0].Opened || !events[1].Opened || events[2].Opened {
		t.Errorf("events = %+v", events)
	}
	if d.IsOpen(w2) {
		t.Error("closed window still reported open")
	}
}

func TestTopWindowSkipsInvisible(t *testing.T) {
	d := NewDesktop()
	w1 := NewElement("w1", "Main", WindowControl)
	w2 := NewElement("w2", "Hidden", WindowControl)
	d.OpenWindow(w1)
	d.OpenWindow(w2)
	w2.SetVisible(false)
	if d.TopWindow() != w1 {
		t.Fatal("TopWindow should skip invisible windows")
	}
}

func TestClickDispatch(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	d.OpenWindow(w)

	btn := NewElement("b", "Bold", ButtonControl)
	w.AddChild(btn)
	tg := NewToggle(nil)
	btn.SetPattern(TogglePattern, tg)
	clicked := 0
	btn.OnClick(func(*Element) { clicked++ })

	if err := d.Click(btn); err != nil {
		t.Fatal(err)
	}
	if tg.State != ToggleOn || clicked != 1 {
		t.Fatalf("toggle=%v clicks=%d", tg.State, clicked)
	}
	if err := d.Click(btn); err != nil {
		t.Fatal(err)
	}
	if tg.State != ToggleOff {
		t.Fatal("second click should toggle off")
	}

	btn.SetEnabled(false)
	if err := d.Click(btn); !errors.Is(err, ErrDisabled) {
		t.Fatalf("click on disabled: %v", err)
	}
	btn.SetEnabled(true)
	btn.SetVisible(false)
	if err := d.Click(btn); !errors.Is(err, ErrNotOnScreen) {
		t.Fatalf("click on hidden: %v", err)
	}
}

func TestClickFocusesEdit(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	d.OpenWindow(w)
	ed := NewElement("e", "Search", EditControl)
	ed.SetPattern(ValuePattern, NewValue("", nil))
	w.AddChild(ed)
	if err := d.Click(ed); err != nil {
		t.Fatal(err)
	}
	if d.Focus() != ed {
		t.Fatal("click on edit should focus it")
	}
	if err := d.TypeText("hello"); err != nil {
		t.Fatal(err)
	}
	v := ed.Pattern(ValuePattern).(Valuer)
	if got := v.Value(ed); got != "hello" {
		t.Errorf("typed value = %q", got)
	}
}

func TestTypeTextErrors(t *testing.T) {
	d := NewDesktop()
	if err := d.TypeText("x"); !errors.Is(err, ErrNoFocus) {
		t.Fatalf("want ErrNoFocus, got %v", err)
	}
	ro := NewElement("ro", "Status", EditControl)
	ro.SetPattern(ValuePattern, &SimpleValue{Val: "v", ReadOnly: true})
	d.SetFocus(ro)
	if err := d.TypeText("x"); err == nil {
		t.Fatal("typing into read-only value should fail")
	}
}

func TestPressKey(t *testing.T) {
	d := NewDesktop()
	fired := ""
	d.RegisterKey("Ctrl+S", func(*Desktop) error { fired = "save"; return nil })
	if err := d.PressKey("ctrl + s"); err != nil {
		t.Fatal(err)
	}
	if fired != "save" {
		t.Fatal("handler did not run")
	}
	if err := d.PressKey("F42"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("want ErrUnknownKey, got %v", err)
	}
}

func TestHitTestPicksDeepestInteractive(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	w.SetRect(Rect{0, 0, 100, 100})
	pane := NewElement("p", "Body", PaneControl)
	pane.SetRect(Rect{0, 0, 100, 100})
	btn := NewElement("b", "OK", ButtonControl)
	btn.SetRect(Rect{10, 10, 20, 10})
	w.AddChild(pane)
	pane.AddChild(btn)
	d.OpenWindow(w)

	if got := d.HitTest(15, 15); got != btn {
		t.Fatalf("HitTest = %v, want OK button", got)
	}
	if got := d.HitTest(90, 90); got != pane {
		t.Fatalf("HitTest = %v, want body pane", got)
	}
	if got := d.HitTest(500, 500); got != nil {
		t.Fatalf("HitTest outside = %v, want nil", got)
	}
	if err := d.ClickAt(500, 500); !errors.Is(err, ErrNoHit) {
		t.Fatalf("ClickAt outside: %v", err)
	}
}

func TestDragMovesScrollbar(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	w.SetRect(Rect{0, 0, 200, 200})
	sb := NewElement("vsb", "Vertical Scroll Bar", ScrollBarControl)
	sb.SetRect(Rect{190, 0, 10, 200})
	sc := NewVScroll(nil)
	sc.V = 0
	sb.SetPattern(ScrollPattern, sc)
	w.AddChild(sb)
	d.OpenWindow(w)

	if err := d.Drag(195, 10, 195, 110); err != nil {
		t.Fatal(err)
	}
	_, v := sc.ScrollPercent(sb)
	if v < 45 || v > 55 {
		t.Errorf("drag of half the bar moved to %v%%, want ~50%%", v)
	}
	// Dragging past the end clamps.
	if err := d.Drag(195, 10, 195, 10000); err != nil {
		t.Fatal(err)
	}
	_, v = sc.ScrollPercent(sb)
	if v != 100 {
		t.Errorf("clamp failed: %v", v)
	}
}

func TestClockAdvances(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	d.OpenWindow(w)
	before := d.Clock().Now()
	d.Snapshot()
	if d.Clock().Now() != before+CostSnapshot {
		t.Error("snapshot did not advance clock")
	}
	d.Clock().Advance(-time.Hour)
	if d.Clock().Now() < 0 {
		t.Error("negative advance should be ignored")
	}
}

func TestSnapshotOrderAndVisibility(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	a := NewElement("a", "A", ButtonControl)
	b := NewElement("b", "B", ButtonControl)
	hidden := NewElement("h", "H", ButtonControl)
	hidden.SetVisible(false)
	under := NewElement("u", "Under", ButtonControl)
	hidden.AddChild(under)
	w.AddChild(a)
	w.AddChild(b)
	w.AddChild(hidden)
	d.OpenWindow(w)

	snap := d.Snapshot()
	if len(snap) != 3 { // w, a, b
		t.Fatalf("snapshot = %d elements, want 3", len(snap))
	}
	if snap[0] != w || snap[1] != a || snap[2] != b {
		t.Error("snapshot not in document order")
	}
}

func TestClampPercentProperty(t *testing.T) {
	f := func(p float64) bool {
		c := clampPercent(p)
		return c >= 0 && c <= 100 && (p < 0 || p > 100 || c == p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeKey(t *testing.T) {
	cases := map[string]string{
		"ctrl+s": "CTRL+S", "Ctrl + S": "CTRL+S", "ENTER": "ENTER", "esc": "ESC",
	}
	for in, want := range cases {
		if got := normalizeKey(in); got != want {
			t.Errorf("normalizeKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// deferredDesktop builds a two-window desktop whose trees hold elements with
// deferred visibility (one a subtree root, one nested deeper, one in the
// second window), a hidden branch, and a hidden window.
func deferredDesktop() *Desktop {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	grp := NewElement("g", "Group", GroupControl)
	slow := NewElement("slow", "Slow", PaneControl)
	slow.AddChild(NewElement("s1", "S1", ButtonControl))
	slow.DeferVisibility(2)
	deep := NewElement("deep", "Deep", ButtonControl)
	deep.DeferVisibility(1)
	grp.AddChild(NewElement("a", "A", ButtonControl))
	grp.AddChild(deep)
	hidden := NewElement("h", "Hidden", ButtonControl)
	hidden.SetVisible(false)
	hidden.AddChild(NewElement("u", "Under", ButtonControl))
	w.AddChild(grp)
	w.AddChild(slow)
	w.AddChild(hidden)
	d.OpenWindow(w)

	pop := NewElement("p", "Popup", PaneControl)
	late := NewElement("late", "Late", ListItemControl)
	late.DeferVisibility(3)
	pop.AddChild(late)
	pop.AddChild(NewElement("b", "B", ButtonControl))
	d.OpenWindow(pop)

	off := NewElement("off", "Off", WindowControl)
	off.SetVisible(false)
	off.AddChild(NewElement("x", "X", ButtonControl))
	d.OpenWindow(off)
	return d
}

func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	ref, got := deferredDesktop(), deferredDesktop()
	ids := func(els []*Element) []string {
		out := make([]string, len(els))
		for i, e := range els {
			out[i] = e.ControlID()
		}
		return out
	}
	// A reused, non-empty buffer from an unrelated tree: SnapshotInto must
	// overwrite it, not append to it.
	stale := NewElement("stale", "Stale", ButtonControl)
	buf := []*Element{stale, stale, stale}
	for round := 0; round < 5; round++ {
		want := ref.Snapshot()
		buf = got.SnapshotInto(buf)
		if w, g := ids(want), ids(buf); !slices.Equal(w, g) {
			t.Fatalf("round %d: SnapshotInto = %v, Snapshot = %v", round, g, w)
		}
		if ref.Clock().Now() != got.Clock().Now() {
			t.Errorf("round %d: clock %v, want %v", round, got.Clock().Now(), ref.Clock().Now())
		}
		if ref.SnapshotCount() != got.SnapshotCount() {
			t.Errorf("round %d: SnapshotCount %d, want %d", round, got.SnapshotCount(), ref.SnapshotCount())
		}
	}
	// The countdowns ran out in lock step: every deferred element is on
	// screen in both by round 3, and the final captures hold them.
	if n := len(buf); n != 9 { // w g a deep slow s1 p late b
		t.Errorf("final capture = %d elements, want 9", n)
	}

	// Capacity is reused: a warm buffer captures in place.
	warm := got.SnapshotInto(buf)
	if &warm[0] != &buf[0] {
		t.Error("SnapshotInto reallocated a buffer that had room")
	}
	if allocs := testing.AllocsPerRun(20, func() { buf = got.SnapshotInto(buf) }); allocs != 0 {
		t.Errorf("warm SnapshotInto allocates %.1f times per call, want 0", allocs)
	}

	// An empty desktop captures nothing, as Snapshot always has.
	if out := NewDesktop().SnapshotInto(buf); len(out) != 0 {
		t.Errorf("empty desktop: %d elements", len(out))
	}
}

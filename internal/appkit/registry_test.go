package appkit_test

import (
	"math/rand"
	"testing"

	"repro/internal/agent"
	"repro/internal/appkit"
	"repro/internal/uia"
)

// treeExpanders walks the main window and every popup template — every
// tree a SoftReset must leave collapsed — and returns each ExpandCollapse
// control found there.
func treeExpanders(a *appkit.App) []*uia.Element {
	var out []*uia.Element
	visit := func(root *uia.Element) {
		root.Walk(func(e *uia.Element) bool {
			if _, ok := e.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser); ok {
				out = append(out, e)
			}
			return true
		})
	}
	visit(a.Win)
	for _, p := range a.PopupTemplates() {
		visit(p.Win)
	}
	return out
}

// TestExpanderRegistryMatchesTrees pins SoftReset's O(expanded) contract:
// for every catalog application, the registry SoftReset collapses from is
// exactly the set of ExpandCollapse controls in the application's trees. An
// expander built outside appkit's registering constructors fails here.
func TestExpanderRegistryMatchesTrees(t *testing.T) {
	for _, name := range agent.AppNames() {
		a := agent.Factories()[name]()
		reg := a.Expanders()
		if len(reg) == 0 {
			t.Errorf("%s: no registered expanders", name)
		}
		registered := make(map[*uia.Element]bool, len(reg))
		for _, e := range reg {
			if registered[e] {
				t.Errorf("%s: %s registered twice", name, e.ControlID())
			}
			registered[e] = true
		}
		inTree := make(map[*uia.Element]bool)
		for _, e := range treeExpanders(a) {
			inTree[e] = true
			if !registered[e] {
				t.Errorf("%s: ExpandCollapse control %s is not registered; SoftReset would never collapse it", name, e.ControlID())
			}
		}
		for _, e := range reg {
			if !inTree[e] {
				t.Errorf("%s: registered expander %s is outside the application's trees", name, e.ControlID())
			}
		}
	}
}

// TestSoftResetCollapsesAfterRandomClicks is the property behind the
// registry: after any click history, SoftReset leaves no control in the
// application's trees expanded. Clicks favour combo boxes so dropdowns are
// routinely left open; blocklisted controls are never clicked, as in a rip.
func TestSoftResetCollapsesAfterRandomClicks(t *testing.T) {
	const seeds, clicks = 4, 60
	leftOpen := 0
	for _, name := range agent.AppNames() {
		for seed := int64(1); seed <= seeds; seed++ {
			a := agent.Factories()[name]()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < clicks; i++ {
				var targets, combos []*uia.Element
				for _, e := range a.Desk.Snapshot() {
					if e.Parent() == nil || !e.Enabled() || !e.Type().IsInteractive() || a.Blocked(e) {
						continue
					}
					targets = append(targets, e)
					if e.HasPattern(uia.ExpandCollapsePattern) {
						combos = append(combos, e)
					}
				}
				pool := targets
				if len(combos) > 0 && rng.Intn(3) == 0 {
					pool = combos
				}
				if len(pool) == 0 {
					a.SoftReset()
					continue
				}
				_ = a.Desk.Click(pool[rng.Intn(len(pool))])
			}
			for _, e := range treeExpanders(a) {
				if e.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser).ExpandState(e) == uia.Expanded {
					leftOpen++
				}
			}
			a.SoftReset()
			for _, e := range treeExpanders(a) {
				if e.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser).ExpandState(e) == uia.Expanded {
					t.Errorf("%s seed %d: %s still expanded after SoftReset", name, seed, e.ControlID())
				}
			}
		}
	}
	if leftOpen == 0 {
		t.Fatal("no click history left a control expanded; the property was never exercised")
	}
	t.Logf("%d controls left expanded before reset across all histories", leftOpen)
}

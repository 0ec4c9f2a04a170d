package appkit

import "repro/internal/uia"

// Expanders returns the registered ExpandCollapse controls in build order,
// the set SoftReset collapses.
func (a *App) Expanders() []*uia.Element {
	out := make([]*uia.Element, len(a.expanders))
	for i, r := range a.expanders {
		out[i] = r.el
	}
	return out
}

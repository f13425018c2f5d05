package obs

import "sort"

// Count returns how many samples were observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// FamilyNames returns every registered metric family name, sorted — the
// registry side of the docs/OBSERVABILITY.md cross-check.
func (r *Registry) FamilyNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.families))
	for name := range r.families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

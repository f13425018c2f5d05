package hpo

// Test-only views of study, trial, space and admission state: the
// binaries read these through journal records and metrics instead.

// State returns the current lifecycle state.
func (t *Trial) State() TrialState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Reports returns a copy of the intermediate metric stream observed so far.
func (t *Trial) Reports() []EpochReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]EpochReport(nil), t.reports...)
}

// Result returns the final result once the trial is terminal, else nil.
func (t *Trial) Result() *TrialResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.result
}

// Trials returns the study's trial handles in creation order (live view;
// states advance as the study runs).
func (s *Study) Trials() []*Trial {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Trial(nil), s.trials...)
}

// ByName returns the parameter with the given name, or nil.
func (s *Space) ByName(name string) Param {
	for _, p := range s.Params {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// InFlight reports a tenant's admitted studies (waiting + granted) — the
// number its MaxConcurrent quota is checked against.
func (q *AdmissionQueue) InFlight(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inflight[tenant]
}

package hpo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/runtime"
	"repro/internal/store"
)

// Task names of the Figure-3 pipeline stages.
const (
	visTaskName  = "visualisation"
	plotTaskName = "plot"
)

// registerPipeline adds the visualisation and plot tasks that recreate the
// paper's application structure (Figure 2/3): "for immediate and interactive
// action, the performance measure returned can be visualised using another
// task. When all tasks are completed, we plot the graphs" (§4).
func (s *Study) registerPipeline() error {
	rt := s.opts.Runtime
	if !rt.Registered(visTaskName) {
		if err := rt.Register(runtime.TaskDef{
			Name:    visTaskName,
			Returns: 1,
			Fn: func(ctx *runtime.TaskContext, args []interface{}) ([]interface{}, error) {
				res, ok := args[0].(TrialResult)
				if !ok {
					return []interface{}{"(trial unavailable)"}, nil
				}
				line := fmt.Sprintf("trial %2d  best %.4f  final %.4f  epochs %2d  %s",
					res.ID, res.BestAcc, res.FinalAcc, res.Epochs, res.Config.Fingerprint())
				if res.Err != "" {
					line = fmt.Sprintf("trial %2d  FAILED: %s", res.ID, res.Err)
				}
				return []interface{}{line}, nil
			},
		}); err != nil {
			return err
		}
	}
	if !rt.Registered(plotTaskName) {
		if err := rt.Register(runtime.TaskDef{
			Name:    plotTaskName,
			Returns: 1,
			Fn: func(ctx *runtime.TaskContext, args []interface{}) ([]interface{}, error) {
				lines := make([]string, 0, len(args))
				for _, a := range args {
					if s, ok := a.(string); ok {
						lines = append(lines, s)
					}
				}
				sort.Strings(lines)
				return []interface{}{"=== study plot ===\n" + strings.Join(lines, "\n")}, nil
			},
		}); err != nil {
			return err
		}
	}
	return nil
}

// loadCheckpoint restores previously finished trials from the study's
// Recorder, keyed by config fingerprint. Failures and cancellations are
// dropped so they rerun.
func (s *Study) loadCheckpoint() (map[string]TrialResult, error) {
	out := map[string]TrialResult{}
	if s.opts.Recorder == nil {
		return out, nil
	}
	stored, err := s.opts.Recorder.Load()
	if err != nil {
		return nil, err
	}
	maxID := -1
	for _, st := range stored {
		t := FromStoreTrial(st)
		if !t.Succeeded() {
			continue // rerun failures, cancellations and pruned trials
		}
		out[t.Config.Fingerprint()] = t
		if t.ID > maxID {
			maxID = t.ID
		}
	}
	s.mu.Lock()
	if s.nextID <= maxID {
		s.nextID = maxID + 1
	}
	s.mu.Unlock()
	return out, nil
}

// recordRound persists one round of finished results through the Recorder.
// Recorders dedup already-persisted trials, so passing resumed copies is
// harmless.
func (s *Study) recordRound(round []TrialResult) error {
	if s.opts.Recorder == nil {
		return nil
	}
	// Terminal trial records join the same total order as metric and
	// decision records (see Study.decisionMu): replay relies on a trial's
	// final record never interleaving into another trial's
	// observation→decision window.
	s.decisionMu.Lock()
	defer s.decisionMu.Unlock()
	return s.opts.Recorder.Record(toStoreTrials(round))
}

// memoLookup consults the recorder's cross-study memo index, when it has
// one, for a finished result with an identical config fingerprint.
func (s *Study) memoLookup(fingerprint string) (TrialResult, bool) {
	m, ok := s.opts.Recorder.(store.Memoizer)
	if !ok {
		return TrialResult{}, false
	}
	st, hit := m.Lookup(fingerprint)
	if !hit {
		return TrialResult{}, false
	}
	return FromStoreTrial(st), true
}

package hpo

import "sync"

// TrialState is the lifecycle of one trial handle:
//
//	pending → running → reported | pruned | failed | canceled
//
// Memoized and checkpoint-resumed trials jump straight from pending to
// reported without ever running.
type TrialState int

// Trial lifecycle states.
const (
	// TrialPending: created but not executing yet.
	TrialPending TrialState = iota
	// TrialRunning: submitted to the runtime and possibly streaming
	// intermediate epoch reports.
	TrialRunning
	// TrialReported: finished normally with final metrics.
	TrialReported
	// TrialPruned: stopped mid-training by a pruner decision; metrics are
	// partial.
	TrialPruned
	// TrialFailed: the objective (or its task) errored.
	TrialFailed
	// TrialCanceled: dropped by study-level early stop or cancellation.
	TrialCanceled
)

// Terminal reports whether the trial reached an end state.
func (s TrialState) Terminal() bool {
	return s == TrialReported || s == TrialPruned || s == TrialFailed || s == TrialCanceled
}

// EpochReport is one intermediate metric point streamed by a running trial.
type EpochReport struct {
	Epoch int
	Value float64
}

// Trial is the first-class handle of one configuration evaluation: identity,
// lifecycle state machine, the stream of intermediate epoch metrics observed
// so far, and — once terminal — the final result. The study run loop, the
// pruners and the runtime's report/cancel plumbing all speak in Trial
// handles; []TrialResult is only the terminal rendering handed to samplers
// and persistence.
type Trial struct {
	// ID is the study-scoped trial id (stable across resume).
	ID int
	// Config is the hyperparameter assignment under evaluation.
	Config Config

	mu      sync.Mutex
	state   TrialState
	taskID  int // runtime invocation id; 0 until submitted
	reports []EpochReport
	reason  string // why the trial was pruned or canceled
	result  *TrialResult
}

// newTrial builds a pending handle.
func newTrial(id int, cfg Config) *Trial { return &Trial{ID: id, Config: cfg} }

// TaskID returns the runtime invocation executing this trial (0 when the
// trial never ran).
func (t *Trial) TaskID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.taskID
}

// markRunning transitions pending → running and records the executing task.
func (t *Trial) markRunning(taskID int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.taskID = taskID
	if t.state == TrialPending {
		t.state = TrialRunning
	}
}

// observe appends one intermediate metric point (running trials only; late
// reports from an already-terminal trial are dropped). It reports whether
// the point was accepted.
func (t *Trial) observe(epoch int, value float64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != TrialRunning {
		return false
	}
	t.reports = append(t.reports, EpochReport{Epoch: epoch, Value: value})
	return true
}

// requestPrune transitions running → pruned exactly once; the caller then
// delivers the actual cancellation to the runtime. False means the trial was
// no longer prunable (already terminal or never started).
func (t *Trial) requestPrune(reason string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != TrialRunning {
		return false
	}
	t.state = TrialPruned
	t.reason = reason
	return true
}

// requestCancel transitions pending/running → canceled exactly once.
func (t *Trial) requestCancel(reason string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state.Terminal() {
		return false
	}
	t.state = TrialCanceled
	t.reason = reason
	return true
}

// finalize merges the trial's lifecycle into the raw task result and locks
// in the terminal state: a prune/cancel requested while the task was
// in-flight overrides whatever the (cooperatively stopped) task returned.
func (t *Trial) finalize(res *TrialResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.state == TrialPruned:
		res.Pruned = true
		res.PruneReason = t.reason
	case t.state == TrialCanceled:
		res.Canceled = true
	case res.Canceled:
		t.state = TrialCanceled
	case res.Err != "":
		t.state = TrialFailed
	default:
		t.state = TrialReported
	}
	r := *res
	t.result = &r
}

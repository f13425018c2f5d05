// Package store persists HPO studies and trial results. Its centrepiece is
// the crash-safe Journal: a sharded append-only JSONL write-ahead log —
// per-study segment files under a journal directory, committed through an
// atomically rewritten manifest — with group-commit fsync batching and an
// in-memory index rebuilt on Open. Terminal studies are compactable down
// to their summary records (Compact), so a long-lived daemon's boot-replay
// time scales with live studies rather than total history; the on-disk
// format is specified normatively in docs/JOURNAL.md. hpo.Study
// checkpointing goes through one narrow Recorder interface, which the
// Journal implements per study.
//
// The Journal additionally indexes every successful trial by its config
// fingerprint, so identical configurations — within a study or across
// studies — can return a cached result instead of re-executing the
// training (Hippo-style result memoization).
package store

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sentinel errors, checkable via errors.Is.
var (
	// ErrNotFound reports a study id the store has never seen.
	ErrNotFound = errors.New("store: study not found")
	// ErrExists reports a CreateStudy with an id already in use.
	ErrExists = errors.New("store: study already exists")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrCorrupt reports an unreadable journal record before the tail.
	ErrCorrupt = errors.New("store: corrupt journal")
	// ErrLocked reports a journal already opened by another process.
	ErrLocked = errors.New("store: journal locked by another process")
)

// recordTypes enumerates every journal record type this package emits.
// docs/JOURNAL.md must document each of them — a test (and the CI docs
// check) pins the spec to this list.
var recordTypes = []string{recStudy, recState, recTrial, recMetric, recPrune, recPromote}

// StudyState is the lifecycle of a persisted study.
type StudyState string

// Study lifecycle states. Created studies wait for an explicit start;
// queued/running studies are re-submitted after a daemon restart.
const (
	StateCreated StudyState = "created"
	StateQueued  StudyState = "queued"
	StateRunning StudyState = "running"
	StateDone    StudyState = "done"
	StateFailed  StudyState = "failed"
	// StateCanceled is the terminal state of a study stopped by an operator
	// (POST /cancel). Like done/failed it is NOT Active: a restarting
	// daemon must never re-queue a canceled study.
	StateCanceled StudyState = "canceled"
)

// Active reports whether the state should be resumed after a restart.
func (s StudyState) Active() bool { return s == StateQueued || s == StateRunning }

// Terminal reports whether the study reached an end state (no more trials
// will be recorded under it).
func (s StudyState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// StudyMeta is the persisted description of one study.
type StudyMeta struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Tenant is the owning tenant's id in a multi-tenant daemon (empty on
	// single-tenant journals). It scopes listing/visibility at the API
	// layer and keys per-tenant quota accounting; it is always a tenant
	// id, never a bearer token.
	Tenant    string     `json:"tenant,omitempty"`
	Spec      []byte     `json:"spec,omitempty"` // submitted spec, verbatim JSON
	State     StudyState `json:"state"`
	Error     string     `json:"error,omitempty"`
	CreatedAt time.Time  `json:"created_at"`
	UpdatedAt time.Time  `json:"updated_at"`
	// Summary fields, filled when a run finishes (and preserved across
	// restarts for finished studies).
	Trials   int     `json:"trials,omitempty"`
	Resumed  int     `json:"resumed,omitempty"`
	Memoized int     `json:"memoized,omitempty"`
	BestAcc  float64 `json:"best_acc,omitempty"`
	// EpochsExecuted accumulates the training epochs this study's finished
	// runs consumed (one per journaled metric record), folded in from each
	// terminal state record's Summary.Epochs. It survives compaction — the
	// compacted study record carries the full meta — so per-tenant epoch
	// budgets re-derive exactly across restarts.
	EpochsExecuted int `json:"epochs_executed,omitempty"`
}

// Summary carries end-of-run counters into SetStudyState. Epochs is
// filled by the journal itself at append time (the journal counts metric
// records; callers cannot know about epochs recorded by prior runs).
type Summary struct {
	Trials   int
	Resumed  int
	Memoized int
	BestAcc  float64
	Epochs   int `json:",omitempty"`
}

// Trial is the storage form of one finished trial — the same shape the
// legacy checkpoint file used, plus the config fingerprint that keys
// memoization.
type Trial struct {
	ID          int                    `json:"id"`
	Config      map[string]interface{} `json:"config"`
	Fingerprint string                 `json:"fingerprint,omitempty"`
	// Scope namespaces the memo index: trials only answer lookups from
	// studies with an identical scope (the objective identity — dataset,
	// sample count, model widths, seed… — as opposed to the config, which
	// the fingerprint covers). Empty scope matches only empty scope.
	Scope         string    `json:"scope,omitempty"`
	FinalAcc      float64   `json:"final_acc"`
	BestAcc       float64   `json:"best_acc"`
	FinalLoss     float64   `json:"final_loss"`
	Epochs        int       `json:"epochs"`
	ValAccHistory []float64 `json:"val_acc_history,omitempty"`
	// ValAccQ is the delta-encoded form of ValAccHistory used by compacted
	// trial records when the history is long enough to dominate segment
	// size: values quantized to 1e-9 — the first absolute, the rest
	// first-order differences. Exactly one of ValAccHistory / ValAccQ is
	// set on disk; readers decode back to ValAccHistory (see
	// decodeTrialHistory), so in-memory consumers never observe this field.
	ValAccQ    []int64 `json:"val_acc_q,omitempty"`
	Stopped    bool    `json:"stopped,omitempty"`
	StopReason string  `json:"stop_reason,omitempty"`
	DurationNS int64   `json:"duration_ns"`
	Err        string  `json:"err,omitempty"`
	Canceled   bool    `json:"canceled,omitempty"`
	// Pruned marks a trial stopped mid-training by a pruner decision; its
	// metrics are partial (the epochs it ran before losing its rung).
	Pruned      bool   `json:"pruned,omitempty"`
	PruneReason string `json:"prune_reason,omitempty"`
	// Promoted marks a trial a rung scheduler continued past its
	// configured budget: Epochs exceeds the config's num_epochs. Promoted
	// trials resume within their own study (fingerprint dedup) but never
	// answer cross-study memo lookups — the fingerprint's num_epochs
	// understates the training the metrics reflect.
	Promoted bool `json:"promoted,omitempty"`
}

// Succeeded reports whether the trial produced a usable result (memoizable
// and skippable on resume). Pruned trials carry only partial training, so
// they are neither memoized nor skipped — a resumed study re-evaluates
// them under its then-current pruner.
func (t Trial) Succeeded() bool { return t.Err == "" && !t.Canceled && !t.Pruned }

// sanitize normalises a trial for persistence: non-finite metric values
// become zeros so the trial always JSON-encodes (a diverged training with
// NaN loss must journal as a bad result, not kill the study with an
// encoding error), and sampler-internal config keys are stripped — every
// append path runs through here, so hidden scheduler bookkeeping can
// never reach disk even via legacy-checkpoint migration. The history is
// copied before rewriting — the caller's slice must not change underneath
// it.
func (t Trial) sanitize() Trial {
	for k := range t.Config {
		if strings.HasPrefix(k, "_") {
			t.Config = PublicConfig(t.Config)
			break
		}
	}
	t.FinalAcc = finiteOr0(t.FinalAcc)
	t.BestAcc = finiteOr0(t.BestAcc)
	t.FinalLoss = finiteOr0(t.FinalLoss)
	for i, v := range t.ValAccHistory {
		if v == finiteOr0(v) {
			continue
		}
		cp := append([]float64(nil), t.ValAccHistory...)
		for j := i; j < len(cp); j++ {
			cp[j] = finiteOr0(cp[j])
		}
		t.ValAccHistory = cp
		break
	}
	return t
}

// History delta-encoding parameters: compaction rewrites a trial's
// ValAccHistory as quantized first-order differences once it is at least
// histDeltaMin epochs long — short histories gain nothing, while a deep
// promoted trial's history dominates its record size. The 1e-9 quantum
// keeps seven significant digits of any accuracy in [0, 1], far below
// what a training metric carries.
const (
	histDeltaMin   = 8
	histDeltaScale = 1e9
)

// encodeTrialHistory returns t with a long ValAccHistory re-encoded as
// ValAccQ deltas (compacted-record form). Short histories and trials
// already encoded pass through unchanged.
func encodeTrialHistory(t Trial) Trial {
	if len(t.ValAccHistory) < histDeltaMin || len(t.ValAccQ) > 0 {
		return t
	}
	q := make([]int64, len(t.ValAccHistory))
	prev := int64(0)
	for i, v := range t.ValAccHistory {
		cur := int64(math.Round(finiteOr0(v) * histDeltaScale))
		q[i] = cur - prev
		prev = cur
	}
	t.ValAccQ = q
	t.ValAccHistory = nil
	return t
}

// decodeTrialHistory reverses encodeTrialHistory: every read path runs
// records through here, so consumers always see ValAccHistory regardless
// of the on-disk form.
func decodeTrialHistory(t Trial) Trial {
	if len(t.ValAccQ) == 0 {
		return t
	}
	hist := make([]float64, len(t.ValAccQ))
	cum := int64(0)
	for i, d := range t.ValAccQ {
		cum += d
		hist[i] = float64(cum) / histDeltaScale
	}
	t.ValAccHistory = hist
	t.ValAccQ = nil
	return t
}

// finiteOr0 maps NaN and ±Inf to 0 (JSON has no encoding for them).
func finiteOr0(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// Recorder is the narrow persistence interface hpo.Study checkpoints
// through: Load restores previously finished trials on resume, Record
// persists a round of finished trials. Implementations must tolerate
// Record receiving trials already persisted (resumed copies).
type Recorder interface {
	Load() ([]Trial, error)
	Record(trials []Trial) error
}

// Memoizer is an optional Recorder extension: Lookup returns a previously
// recorded successful trial for a config fingerprint, possibly from another
// study (cross-study result reuse).
type Memoizer interface {
	Lookup(fingerprint string) (Trial, bool)
}

// MetricPoint is one intermediate per-epoch metric streamed by a running
// trial — the journal's record of training progress between trial records.
type MetricPoint struct {
	TrialID int     `json:"trial_id"`
	Epoch   int     `json:"epoch"`
	Value   float64 `json:"value"`
}

// PruneDecision records a pruner killing a trial mid-flight.
type PruneDecision struct {
	TrialID int    `json:"trial_id"`
	Epoch   int    `json:"epoch"`
	Reason  string `json:"reason"`
}

// Promotion records a rung scheduler granting a trial a higher epoch
// budget than it was submitted with (rung-driven successive halving). A
// resumed study replays these to reconstruct rung decisions without
// re-executing the finished rungs.
type Promotion struct {
	TrialID int    `json:"trial_id"`
	Epoch   int    `json:"epoch"`
	Budget  int    `json:"budget"`
	Reason  string `json:"reason"`
}

// MetricRecorder is an optional Recorder extension for trial lifecycle
// telemetry: intermediate epoch metrics, prune decisions and rung
// promotions, persisted as they happen (not just at round boundaries like
// Record).
type MetricRecorder interface {
	RecordMetric(trialID, epoch int, value float64) error
	RecordPrune(trialID, epoch int, reason string) error
	RecordPromote(trialID, epoch, budget int, reason string) error
}

// WithoutMemo wraps a Recorder so it no longer answers memo lookups while
// preserving the MetricRecorder extension when the underlying recorder has
// one — the memoize:false path must still journal epoch metrics.
func WithoutMemo(r Recorder) Recorder {
	if mr, ok := r.(MetricRecorder); ok {
		return struct {
			Recorder
			MetricRecorder
		}{r, mr}
	}
	return struct{ Recorder }{r}
}

// Fingerprint returns the canonical deterministic identity of a config:
// sorted "k=v" pairs joined by commas, skipping sampler-internal keys
// (leading underscore). hpo.Config.Fingerprint delegates here so studies
// and the store can never disagree on config identity.
func Fingerprint(cfg map[string]interface{}) string {
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		if strings.HasPrefix(k, "_") {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%v", k, cfg[k])
	}
	return b.String()
}

// PublicConfig returns a copy of cfg without sampler-internal keys
// (leading underscore, e.g. Hyperband's "_hb" bracket binding and the
// "_hb_max" promotion ceiling). Persisted trial records and API responses
// must only ever carry public parameters: the hidden keys are scheduler
// bookkeeping scoped to one in-memory sampler instance, and Fingerprint
// already ignores them, so stripping changes no identity.
func PublicConfig(cfg map[string]interface{}) map[string]interface{} {
	if cfg == nil {
		return nil
	}
	out := make(map[string]interface{}, len(cfg))
	for k, v := range cfg {
		if strings.HasPrefix(k, "_") {
			continue
		}
		out[k] = v
	}
	return out
}

// MemoScope renders the canonical objective-scope string that namespaces
// journal memoization: the objective identity (dataset, sample count,
// model widths, base seed, target). The daemon and cmd/hpo both use this
// formula, so CLI and service studies share cache entries exactly when
// their objectives match.
//
// Deliberately NOT part of the scope: the per-trial seed stream (each
// trial perturbs the base seed by its trial id, which depends on sampler
// order). A memo hit therefore returns a result trained under a different
// split/init than the study would have drawn — memoization treats a
// config's accuracy as seed-robust, trading exact RNG reproducibility for
// reuse, as Hippo does. Studies that need bit-exact reproducibility set
// "memoize": false.
func MemoScope(dataset string, samples, cvFolds int, hidden []int, seed uint64, target float64) string {
	return fmt.Sprintf("dataset=%s,samples=%d,cv=%d,hidden=%v,seed=%d,target=%v",
		dataset, samples, cvFolds, hidden, seed, target)
}

// NormaliseConfig restores integer types lost by a JSON round trip
// (20 → 20.0), keeping fingerprints identical across save/load cycles.
func NormaliseConfig(m map[string]interface{}) map[string]interface{} {
	cfg := make(map[string]interface{}, len(m))
	for k, v := range m {
		if f, ok := v.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1e15 {
			cfg[k] = int(f)
			continue
		}
		cfg[k] = v
	}
	return cfg
}

// fingerprintOf fills in a missing fingerprint from the config.
func fingerprintOf(t Trial) string {
	if t.Fingerprint != "" {
		return t.Fingerprint
	}
	return Fingerprint(t.Config)
}

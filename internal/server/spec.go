package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/datasets"
	"repro/internal/hpo"
	"repro/internal/replay"
	"repro/internal/store"
)

// ErrBadSpec reports an invalid study specification (HTTP 400); wrap it
// with the detail and check with errors.Is.
var ErrBadSpec = errors.New("server: invalid study spec")

// StudySpec is the JSON body of POST /v1/studies — everything needed to
// build and run one study. Space uses the paper's Listing-1 config format.
type StudySpec struct {
	Name string `json:"name,omitempty"`
	// Algo is the sampler: grid | random | bayes | tpe | hyperband.
	// hyperband is the rung-driven Hyperband, which is the sampler and the
	// scheduler at once (see Scheduler).
	Algo  string          `json:"algo"`
	Space json.RawMessage `json:"space"`
	// Budget bounds random/model-based samplers; for hyperband, and as the
	// asha scheduler's promotion ceiling, it is the max epochs per trial R.
	Budget int    `json:"budget,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// Dataset and Samples select the objective's training data
	// (synthetic mnist | cifar10 substitutes, up to 70 000 | 60 000 samples).
	Dataset string `json:"dataset,omitempty"`
	Samples int    `json:"samples,omitempty"`
	// CVFolds > 1 evaluates each config with k-fold cross-validation.
	CVFolds int `json:"cv_folds,omitempty"`
	// Hidden is the default hidden-layer widths of the model.
	Hidden []int `json:"hidden,omitempty"`
	// Cores is the per-trial @constraint.
	Cores int `json:"cores,omitempty"`
	// Target stops the study at this validation accuracy (0 = off).
	Target float64 `json:"target,omitempty"`
	// BatchSize bounds in-flight configs per Ask/Tell round (0 = all).
	BatchSize int `json:"batch_size,omitempty"`
	// Memoize opts out of cross-study result reuse when false is wanted;
	// defaults to true (identical configs return persisted results).
	Memoize *bool `json:"memoize,omitempty"`
	// Pruner selects a trial pruner: "" (daemon default) | none | median |
	// asha. Pruned trials stop mid-training when their intermediate
	// accuracy loses to the field.
	Pruner string `json:"pruner,omitempty"`
	// PrunerEta is ASHA's halving factor (default 3).
	PrunerEta int `json:"pruner_eta,omitempty"`
	// PrunerWarmup is the epochs a trial is immune (median) or the first
	// rung's resource (asha); 0 selects the rule's default.
	PrunerWarmup int `json:"pruner_warmup,omitempty"`
	// Scheduler selects rung-driven successive halving over the live
	// report stream: "" (daemon default) | none | hyperband | asha.
	// "hyperband" is what Algo hyperband always runs, so with that algo
	// the field may only be empty or "hyperband" (and with any other algo
	// it is an error); "asha" keeps the configured sampler and
	// promotes/halts trials at asynchronous rung boundaries. Trials are
	// submitted once and continued past their initial budget via task
	// extension instead of being re-submitted per rung. Reuses PrunerEta
	// (halving factor) and PrunerWarmup (first rung) as its knobs, with
	// Budget as the epoch ceiling; mutually exclusive with Pruner and
	// with CVFolds > 1.
	Scheduler string `json:"scheduler,omitempty"`
	// RungMode selects how the hyperband scheduler settles rungs:
	// "" (daemon default, then sync) | sync | async. Sync rungs are
	// barriers — they promote exactly successive halving's sets but need
	// the runtime to hold a whole bracket concurrently; async rungs decide
	// per-arrival (ASHA-style), run on any capacity down to one slot, and
	// execute independent brackets in parallel. The asha scheduler is
	// inherently async: requesting sync for it is rejected.
	RungMode string `json:"rung_mode,omitempty"`
	// Start queues the study for execution immediately on creation.
	Start bool `json:"start,omitempty"`
}

// ParseSpec decodes and validates a study spec, applying defaults.
func ParseSpec(raw []byte) (StudySpec, error) {
	var spec StudySpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if spec.Algo == "" {
		spec.Algo = "grid"
	}
	if spec.Dataset == "" {
		spec.Dataset = "mnist"
	}
	if spec.Samples <= 0 {
		spec.Samples = 800
	}
	if spec.Budget <= 0 {
		spec.Budget = 20
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	if len(spec.Space) == 0 {
		return spec, fmt.Errorf("%w: missing search space", ErrBadSpec)
	}
	// Validate the space, sampler and engine under the most permissive
	// daemon defaults (outside algo hyperband, asha is the only scheduler a
	// default can activate); create then pins the spec under the real ones.
	if _, _, err := spec.BuildDecisions("asha", "", ""); err != nil {
		return spec, err
	}
	if err := datasets.Check(spec.Dataset, spec.Samples); err != nil {
		return spec, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return spec, nil
}

// BuildSpace parses the spec's search space.
func (s StudySpec) BuildSpace() (*hpo.Space, error) {
	return hpo.ParseSpaceJSON(s.Space)
}

// resolution is a study's decision engine once the daemon defaults apply:
// at most one of Scheduler and Pruner is set.
type resolution struct {
	// Scheduler is "" (none), "hyperband" or "asha".
	Scheduler string
	// RungMode is sync or async for hyperband, async for asha and ""
	// without a scheduler.
	RungMode string
	// Pruner is "" (none), "median" or "asha".
	Pruner string
}

// resolve is the one place a spec's scheduler, rung mode and pruner are
// decided: Pin (create), BuildDecisions (the runner, ParseSpec) and
// ReplayParams (verify, compaction, `hpo replay`) all call it. An empty
// field falls back to the daemon default (-scheduler, -rung-mode,
// -pruner); "none" disables either way, so a pinned spec needs none.
//
//   - Algo hyperband is the rung-driven Hyperband: Scheduler may only be
//     empty or "hyperband", and CVFolds > 1 or an explicit pruner is an
//     error. The daemon's scheduler and pruner defaults do not apply.
//   - Any other algo takes an explicit asha scheduler, or the daemon
//     default. A default that does not fit the spec (hyperband, or any
//     scheduler next to CVFolds > 1 or an explicit pruner) falls back to
//     none rather than failing specs that worked before the flag; only
//     explicit fields error.
//   - The rung mode is the spec's, then the daemon's, then sync. The
//     daemon's sync default skips asha, which has no synchronous mode. A
//     rung mode with no active scheduler is an error: failing beats
//     silently running without the rungs the user asked for.
//   - Without a scheduler the pruner is the spec's, then the daemon's.
//
// Every error wraps ErrBadSpec.
func (s StudySpec) resolve(defaultScheduler, defaultMode, defaultPruner string) (resolution, error) {
	if !hpo.KnownScheduler(s.Scheduler) {
		return resolution{}, fmt.Errorf("%w: unknown scheduler %q (want none, hyperband or asha)", ErrBadSpec, s.Scheduler)
	}
	if !hpo.KnownRungMode(s.RungMode) {
		return resolution{}, fmt.Errorf("%w: unknown rung_mode %q (want sync or async)", ErrBadSpec, s.RungMode)
	}
	explicitPruner := s.Pruner != "" && s.Pruner != "none"
	name := s.Scheduler
	switch {
	case s.Algo == "hyperband":
		if name != "" && name != "hyperband" {
			return resolution{}, fmt.Errorf("%w: algo hyperband runs the rung-driven Hyperband scheduler, not scheduler %q", ErrBadSpec, name)
		}
		name = "hyperband"
	case name == "hyperband":
		return resolution{}, fmt.Errorf("%w: scheduler hyperband replaces the sampler and requires algo hyperband, got %q", ErrBadSpec, s.Algo)
	case name == "":
		name = defaultScheduler
		if name == "hyperband" || s.CVFolds > 1 || explicitPruner {
			name = ""
		}
	}
	if name == "" || name == "none" {
		if s.RungMode != "" {
			return resolution{}, fmt.Errorf("%w: rung_mode %q needs a rung scheduler, but none applies (set scheduler, or use algo hyperband)", ErrBadSpec, s.RungMode)
		}
		pruner := s.Pruner
		if pruner == "" {
			pruner = defaultPruner
		}
		if pruner == "none" {
			pruner = ""
		}
		return resolution{Pruner: pruner}, nil
	}
	if s.CVFolds > 1 {
		return resolution{}, fmt.Errorf("%w: %s requires cv_folds <= 1 (cross-validated objectives cannot continue past their budget)", ErrBadSpec, s.schedulerField(name))
	}
	if explicitPruner {
		return resolution{}, fmt.Errorf("%w: %s and pruner %q are mutually exclusive (the scheduler already halts rung losers)", ErrBadSpec, s.schedulerField(name), s.Pruner)
	}
	mode := s.RungMode
	if mode == "" {
		mode = defaultMode
	}
	switch {
	case name == "asha" && s.RungMode == hpo.RungSync:
		return resolution{}, fmt.Errorf("%w: scheduler asha has no synchronous mode (its decisions are per-arrival)", ErrBadSpec)
	case name == "asha":
		mode = hpo.RungAsync
	case mode == "":
		mode = hpo.RungSync
	}
	return resolution{Scheduler: name, RungMode: mode}, nil
}

// schedulerField names where an active scheduler came from, for errors.
func (s StudySpec) schedulerField(name string) string {
	if s.Algo == "hyperband" {
		return "algo hyperband"
	}
	return fmt.Sprintf("scheduler %q", name)
}

// Pin returns the spec's JSON with its resolution under the given
// defaults written into scheduler (none | hyperband | asha), rung_mode
// (set only under an active scheduler) and pruner (none | median | asha).
// The server persists it at create, so a study's decision engine is fixed
// then: resolve is idempotent on the result, whatever the defaults.
func (s StudySpec) Pin(defaultScheduler, defaultMode, defaultPruner string) ([]byte, error) {
	res, err := s.resolve(defaultScheduler, defaultMode, defaultPruner)
	if err != nil {
		return nil, err
	}
	s.Scheduler, s.RungMode, s.Pruner = res.Scheduler, res.RungMode, res.Pruner
	if s.Scheduler == "" {
		s.Scheduler = "none"
	}
	if s.Pruner == "" {
		s.Pruner = "none"
	}
	return json.Marshal(s)
}

// BuildDecisions constructs a fresh sampler and decision engine for one
// run under resolve's rules: for algo hyperband one RungHyperband in both
// the sampler and the scheduler role, otherwise the algo's sampler with
// the resolved asha scheduler or pruner (nil when neither applies).
// Every error wraps ErrBadSpec.
func (s StudySpec) BuildDecisions(defaultScheduler, defaultMode, defaultPruner string) (hpo.Sampler, hpo.TrialScheduler, error) {
	res, err := s.resolve(defaultScheduler, defaultMode, defaultPruner)
	if err != nil {
		return nil, nil, err
	}
	space, err := s.BuildSpace()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	sampler, sched, err := hpo.NewTrialScheduler(res.Scheduler, space, s.Budget, s.PrunerEta, s.PrunerWarmup, s.Seed, res.RungMode)
	if err == nil && sampler == nil {
		sampler, err = hpo.NewSampler(s.Algo, space, s.Budget, s.Seed)
	}
	if err == nil && sched == nil {
		sched, err = hpo.NewPruner(res.Pruner, s.PrunerEta, s.PrunerWarmup)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return sampler, sched, nil
}

// BuildObjective constructs the training objective the spec describes.
func (s StudySpec) BuildObjective() (hpo.Objective, error) {
	ds, err := datasets.ByName(s.Dataset, s.Samples, s.Seed)
	if err != nil {
		return nil, err
	}
	hidden := s.Hidden
	if len(hidden) == 0 {
		hidden = hpo.DefaultHidden()
	}
	if s.CVFolds > 1 {
		return &hpo.CVObjective{Dataset: ds, Folds: s.CVFolds, Hidden: hidden}, nil
	}
	return &hpo.MLObjective{Dataset: ds, Hidden: hidden}, nil
}

// memoize reports whether cross-study result reuse is enabled (default on).
func (s StudySpec) memoize() bool { return s.Memoize == nil || *s.Memoize }

// memoScope identifies everything besides the config that determines a
// trial's result, so the memo index never reuses results across different
// objectives. Must stay in sync with BuildObjective's defaults.
func (s StudySpec) memoScope() string {
	hidden := s.Hidden
	if len(hidden) == 0 {
		hidden = hpo.DefaultHidden()
	}
	return store.MemoScope(s.Dataset, s.Samples, s.CVFolds, hidden, s.Seed, s.Target)
}

// ReplayParams maps the spec onto the replay engine's decision parameters
// under the same resolution BuildDecisions gives the live run (resolve).
// For a pinned spec that is the resolution fixed at create; a spec
// journaled before pinning resolves against the defaults passed now.
func (s StudySpec) ReplayParams(defaultScheduler, defaultMode, defaultPruner string) (replay.Params, error) {
	res, err := s.resolve(defaultScheduler, defaultMode, defaultPruner)
	if err != nil {
		return replay.Params{}, err
	}
	space, err := s.BuildSpace()
	if err != nil {
		return replay.Params{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	// pruner_eta and pruner_warmup are the knobs of whichever engine is
	// active; at most one of res.Scheduler and res.Pruner is set.
	return replay.Params{
		Scheduler: res.Scheduler, RungMode: res.RungMode, Space: space, Budget: s.Budget,
		Eta: s.PrunerEta, MinResource: s.PrunerWarmup, Seed: s.Seed, Target: s.Target,
		Pruner: res.Pruner, PrunerEta: s.PrunerEta, PrunerWarmup: s.PrunerWarmup,
	}, nil
}

// Package replay re-derives a study's scheduler decisions from its journal
// record stream and verifies them against what the journal recorded — the
// determinism contract behind "debuggable production incidents": a trial's
// decision history is a pure function of its recorded prefix.
//
// The engine reads the stream store.Journal.StudyRecords (or
// store.SnapshotStudyRecords) returns and re-drives the *live* scheduler
// implementations — RungHyperband sync+async, ASHAScheduler and the
// pruners, which are schedulers that never promote — in a simulated
// runtime: no training, no clock, no goroutine nondeterminism. Metric
// records become Observe calls, trial records become Complete calls, and
// the decisions the schedulers emit are byte-compared (trial, epoch,
// budget, reason string) against the recorded prune/promote records. The rank pools, keep rules
// and reason strings all come from internal/hpo's pure decision core
// (decide.go) — shared code, not a reimplementation that could drift.
package replay

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/hpo"
	"repro/internal/store"
)

// Params tells the engine how the study was configured — the same knobs
// Study.Run was built with. Server studies derive them from the persisted
// spec (spec.ReplayParams); CLI journals carry no spec, so `hpo replay`
// takes them as flags.
type Params struct {
	// Scheduler is the rung scheduler name: "", "none", "hyperband", "asha".
	Scheduler string
	// RungMode is "" (default sync), "sync" or "async" for Scheduler
	// "hyperband".
	RungMode string
	// Space is the search space (required for hyperband replay — it
	// regenerates the sampled configs from Seed).
	Space *hpo.Space
	// Budget is R, the max epoch budget.
	Budget int
	// Eta is the halving factor (0 → default 3).
	Eta int
	// MinResource anchors ASHA's rung ladder (0 → default 1).
	MinResource int
	// Seed is the sampler seed.
	Seed uint64
	// Pruner is "", "none", "median" or "asha" (exclusive with Scheduler).
	Pruner       string
	PrunerEta    int
	PrunerWarmup int
	// Target, when > 0, is the study's TargetAccuracy: the report that
	// reaches it bypassed the scheduler in the live run, so replay must
	// bypass it too.
	Target float64
}

// Decision is one canonical decision-log entry: a halt (prune) or a
// promote, keyed by everything the journal records for it. Two decisions
// match iff Kind, TrialID, Epoch, Budget and Reason are all equal — the
// byte-match contract.
type Decision struct {
	// Seq is the journal sequence of the recorded decision (0 on the
	// replayed side).
	Seq uint64 `json:"seq,omitempty"`
	// Kind is "halt" or "promote".
	Kind    string `json:"kind"`
	TrialID int    `json:"trial_id"`
	Epoch   int    `json:"epoch"`
	// Budget is the granted epoch budget (promotes only).
	Budget int    `json:"budget,omitempty"`
	Reason string `json:"reason"`
}

// Equal reports whether two decisions match under the byte-match contract
// (Seq is provenance, not content).
func (d Decision) Equal(o Decision) bool {
	return d.Kind == o.Kind && d.TrialID == o.TrialID && d.Epoch == o.Epoch &&
		d.Budget == o.Budget && d.Reason == o.Reason
}

func (d Decision) String() string {
	if d.Kind == "promote" {
		return fmt.Sprintf("promote trial %d @epoch %d → %d: %q", d.TrialID, d.Epoch, d.Budget, d.Reason)
	}
	return fmt.Sprintf("halt trial %d @epoch %d: %q", d.TrialID, d.Epoch, d.Reason)
}

// Report is the verifier's full account of one study replay.
type Report struct {
	StudyID string `json:"study_id"`
	// Mode labels the replayed decision engine: "hyperband-rung/sync",
	// "hyperband-rung/async", "asha-promote", "pruner/median",
	// "pruner/asha" or "none".
	Mode string `json:"mode"`
	// Records is the stream length, Runs the number of run boundaries
	// (state:running markers starting fresh scheduler state).
	Records int `json:"records"`
	Runs    int `json:"runs"`
	// Trials counts distinct trial ids seen; Epochs counts metric records
	// fed to the engine (each was one accepted live report, so this equals
	// the study's hpo_study_epochs_total contribution).
	Trials int `json:"trials"`
	Epochs int `json:"epochs"`
	// Recorded and Replayed are the two decision logs the contract
	// compares; on success they are element-wise Equal.
	Recorded []Decision `json:"recorded"`
	Replayed []Decision `json:"replayed"`
	// Bindings maps trial ids to bracket member keys (rung Hyperband only).
	Bindings map[int]string `json:"bindings,omitempty"`
	// Budgets maps each trial to its granted budget ladder: the initial
	// num_epochs followed by every promoted budget, strictly increasing —
	// the exactly-once grant accounting.
	Budgets map[int][]int `json:"budgets,omitempty"`
	// Warnings note contract edges that degrade verification without
	// failing it (compacted telemetry, trials without a final record, ...).
	Warnings []string `json:"warnings,omitempty"`
}

// Sentinel errors: every verification failure wraps exactly one of these,
// so callers (and the fuzzer) can classify without string matching.
var (
	// ErrDivergence: the stream is well-formed but the re-derived decision
	// log does not match the recorded one.
	ErrDivergence = errors.New("replay: decision divergence")
	// ErrCorrupt: the stream violates journal invariants (double grants,
	// epochs past the granted ceiling, unbindable trials, malformed
	// records) and cannot be verified.
	ErrCorrupt = errors.New("replay: corrupt record stream")
)

// DivergenceError pinpoints the first mismatched decision.
type DivergenceError struct {
	StudyID string
	// Index is the position in the decision logs where they diverge.
	Index int
	// Recorded/Replayed are the decisions at Index; nil when that side's
	// log ended early.
	Recorded *Decision
	Replayed *Decision
	Detail   string
	// Context carries the aligned log tail before the divergence for Diff.
	context []Decision
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("replay: study %s diverges at decision %d: %s", e.StudyID, e.Index, e.Detail)
}

// Unwrap classifies the error as ErrDivergence.
func (e *DivergenceError) Unwrap() error { return ErrDivergence }

// Diff renders a unified-style report of the divergence: the agreed
// context, then the recorded and replayed sides of the first mismatch.
func (e *DivergenceError) Diff() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decision log diverges at index %d\n", e.Index)
	start := len(e.context) - 3
	if start < 0 {
		start = 0
	}
	for i, d := range e.context[start:] {
		fmt.Fprintf(&b, "  = [%d] %s\n", e.Index-len(e.context[start:])+i, d)
	}
	if e.Recorded != nil {
		fmt.Fprintf(&b, "  - recorded (seq %d): %s\n", e.Recorded.Seq, *e.Recorded)
	} else {
		fmt.Fprintf(&b, "  - recorded: (log ended)\n")
	}
	if e.Replayed != nil {
		fmt.Fprintf(&b, "  + replayed: %s\n", *e.Replayed)
	} else {
		fmt.Fprintf(&b, "  + replayed: (log ended)\n")
	}
	return b.String()
}

// CorruptError pinpoints a record-stream invariant violation.
type CorruptError struct {
	StudyID string
	// Seq is the offending record's journal sequence (0 when the violation
	// is stream-global).
	Seq    uint64
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("replay: study %s: corrupt stream (seq %d): %s", e.StudyID, e.Seq, e.Detail)
}

// Unwrap classifies the error as ErrCorrupt.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Verify replays the record stream under the given params and checks the
// determinism contract. It returns the full report and, when the contract
// fails, a *DivergenceError or *CorruptError (the report is still returned
// for inspection). recs must be in sequence order, as StudyRecords
// returns them.
func Verify(id string, recs []store.StudyRecord, p Params) (*Report, error) {
	e := &engine{id: id, recs: recs, p: p, rep: &Report{
		StudyID: id, Records: len(recs),
		Bindings: map[int]string{}, Budgets: map[int][]int{},
	}}
	if err := e.run(); err != nil {
		return e.rep, err
	}
	return e.rep, nil
}

// engine is one verification pass over a study's stream.
type engine struct {
	id   string
	recs []store.StudyRecord
	p    Params
	rep  *Report

	// prescan products
	runStarts []int
	finals    map[int]*store.Trial // trial id → first final record
	runOf     map[int]int          // trial id → run index of first appearance

	// streaming state (reset per run where noted)
	halted    map[int]bool // trial id → a halt was emitted (requestPrune fired)
	completed map[int]bool // trial id → final record consumed

	// ceiling is the built scheduler's promotion ceiling (0: none).
	ceiling int
}

func (e *engine) warnf(format string, args ...interface{}) {
	e.rep.Warnings = append(e.rep.Warnings, fmt.Sprintf(format, args...))
}

func (e *engine) corrupt(seq uint64, format string, args ...interface{}) error {
	return &CorruptError{StudyID: e.id, Seq: seq, Detail: fmt.Sprintf(format, args...)}
}

// run drives prescan → per-mode replay → comparison → accounting.
func (e *engine) run() error {
	if err := e.prescan(); err != nil {
		return err
	}
	mode, err := e.dispatch()
	if err != nil {
		return err
	}
	e.rep.Mode = mode
	if err := e.compare(); err != nil {
		return err
	}
	return e.account()
}

// prescan validates record payloads, splits the stream into runs (a
// state:running marker after substantive records starts a new run — fresh
// scheduler state, exactly like a daemon restart rebuilding the study),
// indexes trial finals and collects the recorded decision log.
func (e *engine) prescan() error {
	e.finals = map[int]*store.Trial{}
	e.runOf = map[int]int{}
	e.halted = map[int]bool{}
	e.completed = map[int]bool{}
	e.runStarts = []int{0}
	seenWork := false
	for i, r := range e.recs {
		switch r.Type {
		case "metric":
			if r.Metric == nil {
				return e.corrupt(r.Seq, "metric record without payload")
			}
			// Every journaled metric was one accepted live report — the
			// hpo_study_epochs_total contribution replay re-counts.
			e.rep.Epochs++
			seenWork = true
		case "prune":
			if r.Prune == nil {
				return e.corrupt(r.Seq, "prune record without payload")
			}
			e.rep.Recorded = append(e.rep.Recorded, Decision{
				Seq: r.Seq, Kind: "halt", TrialID: r.Prune.TrialID,
				Epoch: r.Prune.Epoch, Reason: r.Prune.Reason,
			})
			seenWork = true
		case "promote":
			if r.Promote == nil {
				return e.corrupt(r.Seq, "promote record without payload")
			}
			e.rep.Recorded = append(e.rep.Recorded, Decision{
				Seq: r.Seq, Kind: "promote", TrialID: r.Promote.TrialID,
				Epoch: r.Promote.Epoch, Budget: r.Promote.Budget, Reason: r.Promote.Reason,
			})
			seenWork = true
		case "trial":
			if r.Trial == nil {
				return e.corrupt(r.Seq, "trial record without payload")
			}
			if _, dup := e.finals[r.Trial.ID]; dup {
				e.warnf("trial %d has duplicate final records; keeping the first", r.Trial.ID)
			} else {
				t := *r.Trial
				e.finals[r.Trial.ID] = &t
			}
			seenWork = true
		case "state":
			if r.State == store.StateRunning && seenWork {
				e.runStarts = append(e.runStarts, i)
				seenWork = false
			}
		case "study":
			// metadata only
		default:
			return e.corrupt(r.Seq, "unknown record type %q", r.Type)
		}
		// First-appearance run assignment for every trial-scoped record.
		if tid, ok := recTrialID(r); ok {
			if _, seen := e.runOf[tid]; !seen {
				e.runOf[tid] = len(e.runStarts) - 1
			}
		}
	}
	e.rep.Runs = len(e.runStarts)
	e.rep.Trials = len(e.runOf)
	return nil
}

// recTrialID extracts the trial id a record is about, if any.
func recTrialID(r store.StudyRecord) (int, bool) {
	switch {
	case r.Metric != nil:
		return r.Metric.TrialID, true
	case r.Prune != nil:
		return r.Prune.TrialID, true
	case r.Promote != nil:
		return r.Promote.TrialID, true
	case r.Trial != nil:
		return r.Trial.ID, true
	}
	return 0, false
}

// runRecords returns the record slice of run r.
func (e *engine) runRecords(r int) []store.StudyRecord {
	start := e.runStarts[r]
	end := len(e.recs)
	if r+1 < len(e.runStarts) {
		end = e.runStarts[r+1]
	}
	return e.recs[start:end]
}

// runTrials returns run r's new trial ids, ascending — the order the live
// study admitted them (ids are assigned in Ask-consumption order).
func (e *engine) runTrials(r int) []int {
	var ids []int
	//lint:ignore replaydet guarded collect into a slice; sort.Ints below restores a canonical order
	for tid, rr := range e.runOf {
		if rr == r {
			ids = append(ids, tid)
		}
	}
	sort.Ints(ids)
	return ids
}

// dispatch picks the decision engine the params describe and replays every
// run through it.
func (e *engine) dispatch() (string, error) {
	switch e.p.Scheduler {
	case "", "none":
	case "hyperband":
		mode := "hyperband-rung/sync"
		if e.p.RungMode == hpo.RungAsync {
			mode = "hyperband-rung/async"
		}
		return mode, e.replayRungHyperband()
	case "asha":
		return "asha-promote", e.replayArrivals(func() (hpo.TrialScheduler, error) {
			_, sched, err := hpo.NewTrialScheduler("asha", e.p.Space,
				e.p.Budget, e.p.Eta, e.p.MinResource, e.p.Seed, e.p.RungMode)
			return sched, err
		})
	default:
		return "", e.corrupt(0, "unknown scheduler %q", e.p.Scheduler)
	}
	if e.p.Pruner == "" || e.p.Pruner == "none" {
		return "none", nil
	}
	return "pruner/" + e.p.Pruner, e.replayArrivals(func() (hpo.TrialScheduler, error) {
		return hpo.NewPruner(e.p.Pruner, e.p.PrunerEta, e.p.PrunerWarmup)
	})
}

// emit appends engine decisions to the replayed log, mirroring the live
// study's applyDecisions suppression: a halt for a trial that is already
// terminal never reached the journal (requestPrune is idempotent), while
// promotes are always journaled.
func (e *engine) emit(decisions []hpo.SchedDecision) {
	for _, d := range decisions {
		if d.Budget <= 0 {
			if e.halted[d.TrialID] || e.completed[d.TrialID] {
				continue
			}
			e.halted[d.TrialID] = true
			e.rep.Replayed = append(e.rep.Replayed, Decision{
				Kind: "halt", TrialID: d.TrialID, Epoch: d.Epoch, Reason: d.Reason,
			})
			continue
		}
		e.rep.Replayed = append(e.rep.Replayed, Decision{
			Kind: "promote", TrialID: d.TrialID, Epoch: d.Epoch, Budget: d.Budget, Reason: d.Reason,
		})
	}
}

// replayRungHyperband re-drives the rung-driven Hyperband (sync or async).
// Bracket members are regenerated from (Space, Budget, Eta, Seed) — the
// sampled configs, bracket structure and canonical hand-out order are a
// pure function of those — and journal trial ids are bound to members by
// config fingerprint in admission order. Each run gets a fresh scheduler;
// earlier runs' succeeded trials are re-anchored first, exactly like the
// live checkpoint resume.
func (e *engine) replayRungHyperband() error {
	if e.p.Space == nil {
		return e.corrupt(0, "hyperband replay needs the search space")
	}
	members := hpo.NewRungHyperbandAsync(e.p.Space, e.p.Budget, e.p.Eta, e.p.Seed).Members()
	byKey := map[string]hpo.RungMemberInfo{}
	for _, m := range members {
		byKey[m.Key] = m
	}

	// memberOf[run] binds trial id → member key for that run; claimed
	// tracks which members run r's fresh trials may still bind.
	bindings := map[int]string{} // trial id → member key (global: each id lives in one run)
	for r := range e.runStarts {
		// Members anchored by an earlier run's success keep their binding.
		anchored := map[string]int{} // member key → succeeded earlier trial id
		//lint:ignore replaydet map-to-map projection; keys are unique per run so insertion order cannot matter
		for tid, key := range bindings {
			if f := e.finals[tid]; f != nil && f.Succeeded() {
				anchored[key] = tid
			}
		}
		claimed := map[string]bool{}
		//lint:ignore replaydet map-to-set projection; membership is order-insensitive
		for key := range anchored {
			claimed[key] = true
		}
		// Bind this run's fresh trials (ascending id = admission order) to
		// unclaimed members in canonical order, cross-checked by config
		// fingerprint when the trial's final record is available.
		next := 0
		for _, tid := range e.runTrials(r) {
			for next < len(members) && claimed[members[next].Key] {
				next++
			}
			if next >= len(members) {
				return e.corrupt(0, "run %d trial %d: more trials than bracket members (wrong seed or space?)", r, tid)
			}
			m := members[next]
			if f := e.finals[tid]; f != nil && f.Fingerprint != "" {
				if fp := m.Config.Fingerprint(); fp != f.Fingerprint {
					return e.corrupt(0, "run %d trial %d: config fingerprint %s does not match member %s (%s) — wrong seed or space?",
						r, tid, f.Fingerprint, m.Key, fp)
				}
			} else {
				e.warnf("run %d trial %d: no final record; bound to member %s by order", r, tid, m.Key)
			}
			claimed[m.Key] = true
			bindings[tid] = m.Key
			e.rep.Bindings[tid] = m.Key
		}

		// Fresh scheduler for this run, built exactly like the live study.
		sampler, sched, err := hpo.NewTrialScheduler("hyperband", e.p.Space,
			e.p.Budget, e.p.Eta, e.p.MinResource, e.p.Seed, e.p.RungMode)
		if err != nil {
			return e.corrupt(0, "building scheduler: %v", err)
		}
		e.ceiling = sched.MaxBudget()
		// The sync barrier only evaluates brackets the sampler has handed
		// out (the live admission loop drives Ask round by round). Brackets
		// run sequentially, so asking at each admission hands each bracket
		// exactly when its predecessor has finished; extra asks are no-ops.
		handBracket := func() {
			if e.p.RungMode != hpo.RungAsync {
				sampler.Ask(0)
			}
		}

		// Re-anchor earlier successes in canonical member order: the live
		// resume admits checkpoint hits in Ask order and completes them
		// immediately, seeding the rung pools before fresh trials report.
		if r > 0 {
			for _, m := range members {
				tid, ok := anchored[m.Key]
				if !ok {
					continue
				}
				res := hpo.FromStoreTrial(*e.finals[tid])
				res.Config = m.Config
				handBracket()
				sched.Admit(tid, m.Config.Int("num_epochs", 0), m.Config)
				e.emit(sched.Complete(tid, &res))
			}
		}

		admitted := map[int]bool{}
		admit := func(tid int) bool {
			if admitted[tid] {
				return true
			}
			key, ok := bindings[tid]
			if !ok {
				return false
			}
			handBracket()
			m := byKey[key]
			sched.Admit(tid, m.Config.Int("num_epochs", 0), m.Config)
			admitted[tid] = true
			return true
		}
		for _, rec := range e.runRecords(r) {
			switch {
			case rec.Metric != nil:
				mt := rec.Metric
				if !admit(mt.TrialID) {
					e.warnf("metric for unbound trial %d (seq %d) ignored", mt.TrialID, rec.Seq)
					continue
				}
				if e.p.Target > 0 && mt.Value >= e.p.Target {
					continue // live bypassed the scheduler on the target hit
				}
				e.emit(sched.Observe(mt.TrialID, mt.Epoch, mt.Value))
			case rec.Trial != nil:
				tid := rec.Trial.ID
				if e.completed[tid] || !admit(tid) {
					continue
				}
				res := hpo.FromStoreTrial(*e.finals[tid])
				e.completed[tid] = true
				e.emit(sched.Complete(tid, &res))
			}
		}
	}
	return nil
}

// replayArrivals re-drives a per-arrival engine — the sampler-agnostic
// ASHA promotion scheduler or a pruner — in record order. Each trial is
// admitted on its first record through the engine's own Admit, with the
// num_epochs of its final record, exactly as the live study admitted it.
// Neither engine carries state across a restart (Complete never anchors,
// and pruner curves are rebuilt from live reports), so each run starts a
// fresh one.
func (e *engine) replayArrivals(build func() (hpo.TrialScheduler, error)) error {
	for r := range e.runStarts {
		sched, err := build()
		if err != nil {
			return e.corrupt(0, "building the decision engine: %v", err)
		}
		e.ceiling = sched.MaxBudget()
		admitted := map[int]bool{}
		admit := func(tid int) bool {
			if admitted[tid] {
				return true
			}
			f := e.finals[tid]
			if f == nil && e.ceiling > 0 {
				// A promoting engine places arrivals by initial budget,
				// which only the final record carries.
				return false
			}
			var cfg hpo.Config
			if f != nil {
				cfg = hpo.Config(f.Config)
			}
			sched.Admit(tid, cfg.Int("num_epochs", 0), cfg)
			admitted[tid] = true
			return true
		}
		for _, rec := range e.runRecords(r) {
			switch {
			case rec.Metric != nil:
				mt := rec.Metric
				if !admit(mt.TrialID) {
					e.warnf("metric for trial %d with unknown budget (seq %d) ignored", mt.TrialID, rec.Seq)
					continue
				}
				if e.p.Target > 0 && mt.Value >= e.p.Target {
					continue // live bypassed the engine on the target hit
				}
				e.emit(sched.Observe(mt.TrialID, mt.Epoch, mt.Value))
			case rec.Trial != nil:
				tid := rec.Trial.ID
				if e.completed[tid] {
					continue
				}
				e.completed[tid] = true
				if admit(tid) {
					res := hpo.FromStoreTrial(*e.finals[tid])
					e.emit(sched.Complete(tid, &res))
				}
			}
		}
	}
	return nil
}

// compare enforces the byte-match contract between the recorded and
// replayed decision logs.
func (e *engine) compare() error {
	rec, rep := e.rep.Recorded, e.rep.Replayed
	n := len(rec)
	if len(rep) < n {
		n = len(rep)
	}
	for i := 0; i < n; i++ {
		if !rec[i].Equal(rep[i]) {
			return &DivergenceError{
				StudyID: e.id, Index: i,
				Recorded: &rec[i], Replayed: &rep[i],
				Detail:  fmt.Sprintf("recorded %s vs replayed %s", rec[i], rep[i]),
				context: rec[:i],
			}
		}
	}
	if len(rec) != len(rep) {
		d := &DivergenceError{StudyID: e.id, Index: n, context: rec[:n]}
		if len(rec) > n {
			d.Recorded = &rec[n]
			d.Detail = fmt.Sprintf("journal records %d decisions, replay derives %d (first extra: %s)", len(rec), len(rep), rec[n])
		} else {
			d.Replayed = &rep[n]
			d.Detail = fmt.Sprintf("replay derives %d decisions, journal records %d (first extra: %s)", len(rep), len(rec), rep[n])
		}
		return d
	}
	return nil
}

// account enforces exactly-once epoch accounting: every trial's granted
// budget ladder is strictly increasing and capped, and its executed epochs
// never exceed the last grant — zero double-grants, even across
// worker-death re-queues.
func (e *engine) account() error {
	grants := map[int][]int{}
	for _, d := range e.rep.Recorded {
		if d.Kind != "promote" {
			continue
		}
		prev := 0
		if g := grants[d.TrialID]; len(g) > 0 {
			prev = g[len(g)-1]
		}
		if d.Budget <= prev {
			return e.corrupt(d.Seq, "trial %d: double grant (budget %d after %d)", d.TrialID, d.Budget, prev)
		}
		if e.ceiling > 0 && d.Budget > e.ceiling {
			return e.corrupt(d.Seq, "trial %d: granted budget %d exceeds the study ceiling %d", d.TrialID, d.Budget, e.ceiling)
		}
		grants[d.TrialID] = append(grants[d.TrialID], d.Budget)
	}

	metrics := map[int]map[int]bool{} // trial id → distinct epochs reported
	for _, r := range e.recs {
		if r.Metric == nil {
			continue
		}
		m := metrics[r.Metric.TrialID]
		if m == nil {
			m = map[int]bool{}
			metrics[r.Metric.TrialID] = m
		}
		m[r.Metric.Epoch] = true
	}

	ids := make([]int, 0, len(e.runOf))
	for tid := range e.runOf {
		ids = append(ids, tid)
	}
	sort.Ints(ids)
	for _, tid := range ids {
		f := e.finals[tid]
		base := 0
		if f != nil {
			base = configInt(f.Config, "num_epochs")
		}
		ladder := append([]int{base}, grants[tid]...)
		e.rep.Budgets[tid] = ladder
		ceiling := ladder[len(ladder)-1]
		if f != nil && ceiling > 0 && f.Epochs > ceiling {
			if f.Promoted && len(grants[tid]) == 0 {
				// Compaction drops promote records of terminal studies: the
				// final record's Promoted flag is then the only surviving
				// evidence of the grants, so the ceiling is unverifiable —
				// a degraded pass, not corruption.
				e.warnf("trial %d: promoted to %d epochs but its promote records were compacted away; ceiling unverifiable", tid, f.Epochs)
			} else {
				return e.corrupt(0, "trial %d: executed %d epochs but the granted ceiling is %d", tid, f.Epochs, ceiling)
			}
		}
		// A streamed success must have reported every epoch it claims —
		// the Σ per-trial epochs == hpo_study_epochs_total side of the
		// contract (compaction drops metrics, so absent telemetry is a
		// degraded pass, not a failure).
		if f != nil && f.Succeeded() && len(metrics[tid]) > 0 && len(metrics[tid]) != f.Epochs {
			e.warnf("trial %d: %d distinct metric epochs vs %d recorded epochs", tid, len(metrics[tid]), f.Epochs)
		}
	}
	return nil
}

// configInt reads an integral config value, tolerating the int/float64
// split JSON round-trips introduce.
func configInt(cfg map[string]interface{}, key string) int {
	switch v := cfg[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	case float64:
		return int(v)
	}
	return 0
}

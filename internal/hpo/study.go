package hpo

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/runtime"
	"repro/internal/store"
)

// TrialResult is the terminal rendering of one trial — what samplers are
// told and what persistence stores. Live trials are represented by Trial
// handles; a TrialResult only exists once the trial is terminal.
type TrialResult struct {
	ID     int
	Config Config
	TrialMetrics
	Duration time.Duration
	// Err is the failure text ("" on success); kept as a string so results
	// cross gob transports.
	Err string
	// Canceled marks trials dropped by study-level early stopping or an
	// operator cancellation.
	Canceled bool
	// Pruned marks trials halted mid-training by the study's scheduler; their
	// metrics cover only the epochs run before losing. Pruned trials never
	// count as successes.
	Pruned      bool
	PruneReason string
	// Promoted marks trials a rung scheduler continued past their
	// configured num_epochs budget: their metrics cover more epochs than
	// the config says, so they resume within their own study but are
	// excluded from cross-study memoization (a budget-1 lookup must not be
	// answered with a budget-9 result).
	Promoted bool
}

// Succeeded reports whether the trial ran to completion with a usable
// result. Pruned and canceled trials are not successes: they must never
// win a study or seed a sampler's model as if they had finished.
func (t TrialResult) Succeeded() bool { return t.Err == "" && !t.Canceled && !t.Pruned }

// StudyResult aggregates a finished study.
type StudyResult struct {
	Algorithm string
	Trials    []TrialResult
	// Best is the successful trial with the highest BestAcc.
	Best *TrialResult
	// Stopped reports study-level early stopping (target accuracy reached).
	Stopped bool
	// Canceled reports the study was stopped by Stop (operator
	// cancellation); CancelReason carries the reason given.
	Canceled     bool
	CancelReason string
	Duration     time.Duration
	// Plot holds the final plot task's output when Visualise was set.
	Plot string
	// Resumed counts trials restored from the checkpoint instead of run.
	Resumed int
	// Memoized counts trials answered from another study's persisted
	// results via the store's fingerprint index (Hippo-style reuse).
	Memoized int
	// Pruned counts trials halted mid-training by the scheduler.
	Pruned int
}

// BestAccuracy returns the best accuracy or 0.
func (r *StudyResult) BestAccuracy() float64 {
	if r.Best == nil {
		return 0
	}
	return r.Best.BestAcc
}

// StudyOptions configures Run.
type StudyOptions struct {
	// Space defines the hyperparameters (used by samplers; Grid/Random
	// already hold it, so this may be nil).
	Space *Space
	// Sampler proposes configurations.
	Sampler Sampler
	// Objective evaluates them.
	Objective Objective
	// Runtime executes experiment tasks; the study registers its task
	// definitions on it. Must use a Real or Remote backend (training needs
	// to actually run).
	Runtime *runtime.Runtime
	// Constraint is the per-experiment resource requirement, the paper's
	// @constraint decorator.
	Constraint runtime.Constraint
	// BatchSize bounds how many configs are in flight between Ask/Tell
	// cycles; 0 means "everything the sampler offers at once", the natural
	// choice for grid/random (the paper submits all tasks in one loop).
	BatchSize int
	// TargetAccuracy, when > 0, stops the study as soon as any trial
	// reports it (§6.1: "the process can be stopped as soon as one task
	// achieves a specified accuracy"). Running trials also stop themselves.
	TargetAccuracy float64
	// Seed drives per-trial seeds.
	Seed uint64
	// OnEpoch, when non-nil, observes streamed per-epoch accuracy from all
	// trials (trialID, epoch, accuracy). Guaranteed on every backend that
	// can stream reports — Real in-process and Remote over the worker
	// transport; NewStudy rejects the combination with a backend that
	// cannot (Sim) instead of silently dropping epochs.
	OnEpoch func(trial, epoch int, acc float64)
	// Scheduler, when non-nil, is the study's decision engine over the
	// live report stream: trials are admitted once with their config's
	// num_epochs as the initial budget, losers are halted through the
	// prune path, and survivors are promoted past their initial budget via
	// runtime task extension — TCP workers keep training the same config
	// instead of restarting it. A pruner (NewPruner) is a scheduler that
	// never promotes. Requires a streaming backend, like OnEpoch.
	Scheduler TrialScheduler
	// Pruner is another name for Scheduler, for callers that set a pruner
	// by field; NewStudy moves it into Scheduler. Set at most one.
	Pruner TrialScheduler
	// Visualise, when true, rebuilds the paper's Figure-3 application
	// shape for real: each experiment feeds a visualisation task and a
	// final plot task aggregates them; the plot output lands in
	// StudyResult.Plot. Real backend only.
	Visualise bool
	// Recorder, when non-nil, persists finished trials after every round
	// and restores them on the next Run — master-side fault tolerance
	// complementing the runtime's task retries. A journal-backed recorder
	// (store.Journal.Recorder) additionally memoizes (configs already
	// solved by any persisted study return their cached result instead of
	// re-executing) and journals intermediate epoch metrics and prune
	// decisions as they stream in.
	Recorder store.Recorder
}

// Study orchestrates an HPO run on the task runtime: one task per config,
// exactly the application structure of the paper's Figure 2. Each in-flight
// configuration is a Trial handle moving through the lifecycle
// running → reported/pruned/failed/canceled; intermediate epoch metrics
// stream from the executing backend (local or remote) into the study's
// report handler, which feeds OnEpoch observers, the journal's metric
// events, target-accuracy early stopping and the scheduler.
type Study struct {
	opts StudyOptions
	// telemetry is the recorder's optional metric/prune sink.
	telemetry store.MetricRecorder

	// decisionMu serializes the journal's record appends with the
	// scheduler observations that produce them: a metric record, the
	// Observe it feeds and the prune/promote records that Observe emits form
	// one atomic section, so the journal's record order is exactly the order
	// the decisions were taken in. internal/replay's determinism contract
	// (re-driving the scheduler over the record stream reproduces the
	// recorded decisions byte-identically) depends on this invariant; without
	// it two concurrent reports could journal in one order and observe in the
	// other. Lock order: decisionMu may acquire mu inside, never the reverse.
	decisionMu sync.Mutex

	mu           sync.Mutex
	trials       []*Trial
	byTask       map[int]*Trial // runtime task id → live trial
	byID         map[int]*Trial // trial id → handle (scheduler decisions)
	granted      map[int]int    // trial id → highest promoted epoch budget
	baseBudget   map[int]int    // trial id → initial (submitted) epoch budget
	results      []TrialResult
	stopped      bool
	canceled     bool
	cancelReason string
	nextID       int
}

// NewStudy validates options and builds a study.
func NewStudy(opts StudyOptions) (*Study, error) {
	if opts.Sampler == nil {
		return nil, errors.New("hpo: study needs a Sampler")
	}
	if opts.Objective == nil {
		return nil, errors.New("hpo: study needs an Objective")
	}
	if opts.Runtime == nil {
		return nil, errors.New("hpo: study needs a Runtime")
	}
	if opts.Scheduler == nil {
		opts.Scheduler, opts.Pruner = opts.Pruner, nil
	} else if opts.Pruner != nil {
		return nil, errors.New("hpo: Scheduler and Pruner are mutually exclusive (a study has one decision engine)")
	}
	if (opts.OnEpoch != nil || opts.Scheduler != nil) && !opts.Runtime.CanStreamReports() {
		return nil, errors.New("hpo: OnEpoch/Scheduler need a backend that streams epoch reports (Real or Remote, not Sim)")
	}
	s := &Study{opts: opts,
		byTask: make(map[int]*Trial), byID: make(map[int]*Trial),
		granted: make(map[int]int), baseBudget: make(map[int]int)}
	if mr, ok := opts.Recorder.(store.MetricRecorder); ok {
		s.telemetry = mr
	}
	return s, nil
}

// taskName is the registered experiment task type.
const taskName = "experiment"

// Run executes the study to completion (or early stop/cancellation) and
// returns the aggregated result.
func (s *Study) Run() (*StudyResult, error) {
	rt := s.opts.Runtime
	// In distributed deployments the master pre-registers the experiment
	// task via ExperimentTaskDef; otherwise register the local equivalent —
	// the identical task body, so local and remote trials stream and halt
	// the same way.
	if !rt.Registered(taskName) {
		def := ExperimentTaskDef(s.opts.Objective, s.opts.Constraint, s.opts.Seed, s.opts.TargetAccuracy)
		if err := rt.Register(def); err != nil {
			return nil, err
		}
	}
	if s.opts.Visualise {
		if err := s.registerPipeline(); err != nil {
			return nil, err
		}
	}
	rt.SetTaskReportHandler(s.onTaskReport)
	defer rt.SetTaskReportHandler(nil)

	asyncRungs := false
	if sched := s.opts.Scheduler; sched != nil {
		slots := rt.Slots(s.opts.Constraint)
		if slots < 1 {
			// No healthy node can host even one trial (zero workers
			// attached, every node down, or a constraint larger than any
			// node): error out instead of queueing work that can never run.
			return nil, fmt.Errorf("%w: %s needs at least one task slot, but the runtime has no healthy capacity for %d-core tasks",
				ErrCapacity, sched.Name(), s.opts.Constraint.Normalise().Cores)
		}
		if ar, ok := sched.(interface{ AsyncRungs() bool }); ok {
			asyncRungs = ar.AsyncRungs()
		}
		if !asyncRungs {
			// Synchronous rungs pause every member at the boundary until the
			// whole rung reports: with fewer slots than the largest bracket
			// the paused members would deadlock against the queued ones, so
			// fail fast instead of hanging. Async rungs decide per-arrival
			// and run on any capacity.
			if ms, ok := sched.(interface{ MinSlots() int }); ok && slots < ms.MinSlots() {
				return nil, fmt.Errorf("%w: %s needs %d concurrent task slots for its largest bracket; the runtime provides %d (use async rung mode for smaller clusters)",
					ErrCapacity, sched.Name(), ms.MinSlots(), slots)
			}
		} else if cs, ok := sched.(interface{ SetCapacity(int) }); ok {
			// Capacity feedback: the async waiting room admits members only
			// as slots free up instead of flooding the runtime queue.
			cs.SetCapacity(slots)
		}
	}

	checkpoint, err := s.loadCheckpoint()
	if err != nil {
		return nil, err
	}
	resumed, memoized := 0, 0
	start := time.Now()

	var visFuts []*runtime.Future
	batch := s.opts.BatchSize
	if asyncRungs {
		if err := s.runAsyncLoop(checkpoint, &resumed, &memoized, &visFuts, batch); err != nil {
			return nil, err
		}
	} else if err := s.runRoundLoop(checkpoint, &resumed, &memoized, &visFuts, batch); err != nil {
		return nil, err
	}

	var plot string
	if s.opts.Visualise && len(visFuts) > 0 {
		args := make([]interface{}, len(visFuts))
		for i, f := range visFuts {
			args[i] = f
		}
		plotFut, err := rt.Submit1(plotTaskName, args...)
		if err != nil {
			return nil, err
		}
		if vals, err := rt.WaitOn(plotFut); err == nil {
			plot, _ = vals[0].(string)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	out := &StudyResult{
		Algorithm:    s.opts.Sampler.Name(),
		Trials:       append([]TrialResult(nil), s.results...),
		Stopped:      s.stopped,
		Canceled:     s.canceled,
		CancelReason: s.cancelReason,
		Duration:     time.Since(start),
		Plot:         plot,
		Resumed:      resumed,
		Memoized:     memoized,
	}
	sort.Slice(out.Trials, func(i, j int) bool { return out.Trials[i].ID < out.Trials[j].ID })
	for i := range out.Trials {
		t := &out.Trials[i]
		if t.Pruned {
			out.Pruned++
		}
		if t.Succeeded() && (out.Best == nil || t.BestAcc > out.Best.BestAcc) {
			out.Best = t
		}
	}
	return out, nil
}

// runRoundLoop is the barrier execution loop: ask a round, run it to
// completion, tell the sampler, repeat. Batch samplers and synchronous
// rung schedulers need the barrier — a sync rung cannot settle until the
// whole round reports.
func (s *Study) runRoundLoop(checkpoint map[string]TrialResult, resumed, memoized *int, visFuts *[]*runtime.Future, batch int) error {
	rt := s.opts.Runtime
	for {
		s.mu.Lock()
		halted := s.stopped || s.canceled
		s.mu.Unlock()
		if halted {
			return nil
		}
		configs := s.opts.Sampler.Ask(batch)
		if len(configs) == 0 {
			if s.opts.Sampler.Done() {
				return nil
			}
			// Sampler is waiting on results it has not seen; nothing in
			// flight means a stuck sampler, which is a bug worth surfacing.
			return fmt.Errorf("hpo: sampler %q stalled (asked nothing while idle)", s.opts.Sampler.Name())
		}
		futs, roundTrials, roundResults, err := s.admitConfigs(configs, checkpoint, resumed, memoized, visFuts)
		if err != nil {
			return err
		}
		vals, _ := rt.WaitOn(futs...) // per-trial errors live in the results
		for i, v := range vals {
			roundResults = append(roundResults, s.settleTrial(roundTrials[i], v))
		}
		if err := s.commitResults(roundResults); err != nil {
			return err
		}
	}
}

// runAsyncLoop is the non-barrier execution loop used with asynchronous
// rung schedulers: each finished trial is settled the moment its future
// resolves, freeing its slot so the scheduler's waiting room tops the
// runtime up immediately — no slot idles behind the slowest member of a
// round. Correctness does not depend on it (async decisions are
// per-arrival either way); wall-clock does.
func (s *Study) runAsyncLoop(checkpoint map[string]TrialResult, resumed, memoized *int, visFuts *[]*runtime.Future, batch int) error {
	rt := s.opts.Runtime
	type liveSub struct {
		fut   *runtime.Future
		trial *Trial
	}
	var inflight []liveSub
	for {
		s.mu.Lock()
		halted := s.stopped || s.canceled
		s.mu.Unlock()
		var settled []TrialResult
		if !halted {
			configs := s.opts.Sampler.Ask(batch)
			if len(configs) == 0 && len(inflight) == 0 {
				if s.opts.Sampler.Done() {
					return nil
				}
				return fmt.Errorf("hpo: sampler %q stalled (asked nothing while idle)", s.opts.Sampler.Name())
			}
			futs, trials, immediate, err := s.admitConfigs(configs, checkpoint, resumed, memoized, visFuts)
			if err != nil {
				return err
			}
			settled = immediate
			for i := range futs {
				inflight = append(inflight, liveSub{futs[i], trials[i]})
			}
		}
		if halted && len(inflight) == 0 {
			return nil
		}
		if len(inflight) > 0 {
			futs := make([]*runtime.Future, len(inflight))
			for i, sub := range inflight {
				futs[i] = sub.fut
			}
			resolved := make(map[int]bool)
			if halted {
				// Stop already delivered the cancellations; drain the rest.
				_, _ = rt.WaitOn(futs...)
				for i := range inflight {
					resolved[i] = true
				}
			} else {
				for _, i := range rt.WaitAny(futs...) {
					resolved[i] = true
				}
			}
			keep := inflight[:0]
			for i, sub := range inflight {
				if !resolved[i] {
					keep = append(keep, sub)
					continue
				}
				vals, _ := rt.WaitOn(sub.fut) // resolved: returns immediately
				settled = append(settled, s.settleTrial(sub.trial, vals[0]))
			}
			inflight = keep
		}
		if err := s.commitResults(settled); err != nil {
			return err
		}
	}
}

// admitConfigs turns one batch of sampler configs into runtime
// submissions plus the immediate results of configs that never run:
// checkpoint hits resume instantly, memo hits reuse another study's
// persisted result, and once the study is stopped or canceled every
// remaining config settles as a canceled trial without being submitted —
// the scheduler is informed either way so its rung accounting stays
// complete.
func (s *Study) admitConfigs(configs []Config, checkpoint map[string]TrialResult, resumed, memoized *int, visFuts *[]*runtime.Future) (futs []*runtime.Future, trials []*Trial, immediate []TrialResult, err error) {
	rt := s.opts.Runtime
	sched := s.opts.Scheduler
	for _, cfg := range configs {
		if sched != nil {
			// Samplers unaware of rung scheduling (everything but
			// RungHyperband, which stamps per-bracket ceilings itself)
			// get the scheduler's global promotion ceiling.
			if base := cfg.Int("num_epochs", 0); cfg.Int("_hb_max", 0) == 0 &&
				base > 0 && sched.MaxBudget() > base {
				cfg["_hb_max"] = sched.MaxBudget()
			}
		}
		fp := cfg.Fingerprint()
		if cached, ok := checkpoint[fp]; ok {
			// Persisted configs are stripped of sampler-internal ("_")
			// keys; hand the sampler back its own config so bookkeeping
			// like Hyperband's _hb bracket binding survives a resume.
			cached.Config = cfg
			s.adoptSettled(cached)
			immediate = append(immediate, cached)
			*resumed++
			continue
		}
		// A target stop or an operator cancel ends submission. The flags
		// are read before the memo lookup, which can be slow, and again
		// before Admit and Submit.
		s.mu.Lock()
		id := s.nextID
		s.nextID++
		halted := s.stopped || s.canceled
		s.mu.Unlock()
		if halted {
			immediate = append(immediate, s.dropConfig(id, cfg))
			continue
		}
		if memo, ok := s.memoLookup(fp); ok {
			// Another persisted study already evaluated this exact
			// config: reuse its result under a fresh trial id.
			memo.ID = id
			memo.Config = cfg
			s.adoptSettled(memo)
			immediate = append(immediate, memo)
			*memoized++
			continue
		}
		trial := newTrial(id, cfg)
		// Admit and Submit under s.mu: a stop that lands later finds the
		// trial in byTask (or pending in the runtime) and cancels it.
		s.mu.Lock()
		if s.stopped || s.canceled {
			s.mu.Unlock()
			immediate = append(immediate, s.dropConfig(id, cfg))
			continue
		}
		if sched != nil {
			// Admit before Submit: the task may stream its first report
			// the instant it launches, and Observe must already know the
			// trial.
			base := cfg.Int("num_epochs", 0)
			sched.Admit(id, base, cfg)
			s.baseBudget[id] = base
		}
		// The task may stream its first report the instant it launches,
		// and onTaskReport must already find the byTask mapping (it
		// blocks on s.mu until we finish here).
		fut, serr := rt.Submit1(taskName, id, cfg)
		if serr != nil {
			s.mu.Unlock()
			return nil, nil, nil, serr
		}
		trial.markRunning(fut.TaskID())
		s.trials = append(s.trials, trial)
		s.byTask[fut.TaskID()] = trial
		s.byID[id] = trial
		s.mu.Unlock()
		futs = append(futs, fut)
		trials = append(trials, trial)
		if s.opts.Visualise {
			vf, verr := rt.Submit1(visTaskName, fut)
			if verr != nil {
				return nil, nil, nil, verr
			}
			*visFuts = append(*visFuts, vf)
		}
	}
	return futs, trials, immediate, nil
}

// settleTrial renders one resolved task value into the trial's terminal
// result — synthesising one when the task failed or was canceled before
// producing any — finalizes the handle and informs the scheduler of the
// exit.
func (s *Study) settleTrial(trial *Trial, v interface{}) TrialResult {
	var res TrialResult
	if tr, ok := v.(TrialResult); ok {
		res = tr
	} else {
		res = s.emptyResult(trial.ID, trial.Config)
	}
	s.mu.Lock()
	if s.granted[trial.ID] > 0 {
		// The scheduler extended this trial past its configured
		// budget; the result must say so (memo exclusion).
		res.Promoted = true
	}
	s.mu.Unlock()
	trial.finalize(&res)
	s.mu.Lock()
	delete(s.byTask, trial.TaskID())
	s.mu.Unlock()
	if sched := s.opts.Scheduler; sched != nil {
		// A member's exit can settle its rung (and, on resume,
		// cascade through several).
		s.decisionMu.Lock()
		s.applyDecisions(sched.Complete(trial.ID, &res))
		s.decisionMu.Unlock()
	}
	return res
}

// emptyResult synthesises the result of a trial that produced none: canceled
// when the study was stopped or canceled, failed otherwise.
func (s *Study) emptyResult(id int, cfg Config) TrialResult {
	res := TrialResult{ID: id, Config: cfg}
	s.mu.Lock()
	stopped, canceled, reason := s.stopped, s.canceled, s.cancelReason
	s.mu.Unlock()
	switch {
	case canceled:
		res.Canceled = true
		res.Err = "canceled: " + reason
	case stopped:
		res.Canceled = true
		res.Err = "canceled: study target reached"
	default:
		res.Err = "task failed"
	}
	return res
}

// dropConfig settles a config drawn after the study was stopped or
// canceled: it is never submitted, and ends canceled, as a pending task
// canceled by the stop would.
func (s *Study) dropConfig(id int, cfg Config) TrialResult {
	res := s.emptyResult(id, cfg)
	s.adoptSettled(res)
	return res
}

// commitResults appends settled results to the study, persists them
// through the recorder, tells the sampler and applies target-accuracy
// stopping. Streaming already stops the study mid-epoch; honouring the
// target on completed results makes resumed/memoized rounds count too.
func (s *Study) commitResults(settled []TrialResult) error {
	if len(settled) == 0 {
		return nil
	}
	s.mu.Lock()
	s.results = append(s.results, settled...)
	s.mu.Unlock()
	for _, res := range settled {
		switch {
		case res.Pruned:
			obsTrialsPruned.Inc()
		case res.Canceled:
			obsTrialsCanceled.Inc()
		case res.Err != "":
			obsTrialsFailed.Inc()
		default:
			obsTrialsSucceeded.Inc()
		}
	}
	if err := s.recordRound(settled); err != nil {
		return err
	}
	s.opts.Sampler.Tell(settled)
	if s.opts.TargetAccuracy > 0 {
		for _, res := range settled {
			if res.Succeeded() && res.BestAcc >= s.opts.TargetAccuracy {
				s.triggerStop()
				break
			}
		}
	}
	return nil
}

// adoptSettled registers a handle for a trial that never ran (checkpoint
// resume, memo hit, or a config dropped by a stop) so the lifecycle view
// stays complete, and settles it with the scheduler.
func (s *Study) adoptSettled(res TrialResult) {
	trial := newTrial(res.ID, res.Config)
	trial.finalize(&res)
	s.mu.Lock()
	s.trials = append(s.trials, trial)
	s.byID[res.ID] = trial
	s.mu.Unlock()
	if sched := s.opts.Scheduler; sched != nil {
		// The scheduler must account for every bracket member; a
		// settled result exits immediately with its final value,
		// settling its rungs without execution.
		s.decisionMu.Lock()
		sched.Admit(res.ID, res.Config.Int("num_epochs", 0), res.Config)
		s.applyDecisions(sched.Complete(res.ID, &res))
		s.decisionMu.Unlock()
	}
}

// applyDecisions carries a scheduler's verdicts into the runtime:
// halts ride the existing prune path (cooperative per-task cancellation),
// promotions extend the running task's budget gate so the worker keeps
// training the same model. Both are journaled when the recorder supports
// lifecycle telemetry. A promotion whose extension cannot be delivered
// (task finished, worker died) is not an error: the runtime re-queues dead
// workers' tasks from scratch, and the grant is re-issued when the fresh
// attempt streams its reports (restart fallback, see onTaskReport).
func (s *Study) applyDecisions(decisions []SchedDecision) {
	for _, d := range decisions {
		s.mu.Lock()
		trial := s.byID[d.TrialID]
		s.mu.Unlock()
		if trial == nil {
			continue
		}
		if d.Budget <= 0 {
			if trial.requestPrune(d.Reason) {
				obsSchedHalts.With(s.opts.Scheduler.Name()).Inc()
				if s.telemetry != nil {
					_ = s.telemetry.RecordPrune(trial.ID, d.Epoch, d.Reason)
				}
				s.opts.Runtime.CancelTask(trial.TaskID())
			}
			continue
		}
		s.mu.Lock()
		if d.Budget > s.granted[d.TrialID] {
			s.granted[d.TrialID] = d.Budget
		}
		s.mu.Unlock()
		obsSchedPromotions.With(s.opts.Scheduler.Name()).Inc()
		if s.telemetry != nil {
			_ = s.telemetry.RecordPromote(trial.ID, d.Epoch, d.Budget, d.Reason)
		}
		s.opts.Runtime.ExtendTask(trial.TaskID(), d.Budget)
	}
}

// onTaskReport is the study's central intermediate-metric sink: every
// running trial's per-epoch accuracy lands here, whether the task executes
// in-process or streams over a worker transport. It feeds (in order) the
// trial's report history, the OnEpoch observer, the journal's metric
// events, target-accuracy early stopping and the scheduler.
func (s *Study) onTaskReport(taskID, epoch int, value float64) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return // a diverged epoch carries no signal for observers or schedulers
	}
	s.mu.Lock()
	trial := s.byTask[taskID]
	s.mu.Unlock()
	if trial == nil {
		return
	}
	if !trial.observe(epoch, value) {
		return // trial already terminal (late report after prune/cancel)
	}
	obsStudyEpochs.Inc()
	if s.opts.OnEpoch != nil {
		s.opts.OnEpoch(trial.ID, epoch, value)
	}
	// From the journal append to the decisions it triggers is one atomic
	// section (see decisionMu): record order must equal observation order.
	s.decisionMu.Lock()
	defer s.decisionMu.Unlock()
	if s.telemetry != nil {
		_ = s.telemetry.RecordMetric(trial.ID, epoch, value)
	}
	if s.opts.TargetAccuracy > 0 && value >= s.opts.TargetAccuracy {
		s.triggerStop()
		// This report bypasses the scheduler, so no promotion or halt
		// will ever answer it. A gated trial whose objective ignores the
		// target would wait at its next rung boundary forever: refuse
		// its gate, so it returns what it has trained, as a reported
		// trial. An objective that honours the target has stopped already.
		if gated(trial.Config) {
			s.opts.Runtime.CancelTask(taskID)
		}
		return
	}
	if sched := s.opts.Scheduler; sched != nil {
		// Restart fallback: a worker death re-queues the task, and the
		// fresh attempt restarts at the config's initial budget, blind to
		// earlier promotions. A restarted attempt always pauses at its
		// initial gate, so re-issuing the grant exactly at that boundary —
		// whenever the grant exceeds it — releases the pause without
		// per-epoch chatter (idempotent: the gate ceiling is monotonic).
		// A first attempt never matches: its grant is only issued by the
		// Observe below, after its boundary report.
		s.mu.Lock()
		g := s.granted[trial.ID]
		resend := g > epoch+1 && epoch+1 == s.baseBudget[trial.ID]
		s.mu.Unlock()
		if resend {
			s.opts.Runtime.ExtendTask(taskID, g)
		}
		s.applyDecisions(sched.Observe(trial.ID, epoch, value))
	}
}

// triggerStop cancels all pending work once (study-level early stop).
// Running trials stop themselves via their TargetAccuracy callback, or
// onTaskReport refuses the gate of a gated one that reached the target.
func (s *Study) triggerStop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	s.opts.Runtime.CancelPending()
}

// Stop cancels the study from outside (the control plane's POST /cancel):
// pending work is dropped, running trials receive cooperative per-task
// cancellation (local and remote) and are marked canceled, and the run
// loop exits after the in-flight round drains. Idempotent.
func (s *Study) Stop(reason string) {
	s.mu.Lock()
	if s.canceled {
		s.mu.Unlock()
		return
	}
	s.canceled = true
	s.cancelReason = reason
	live := make([]*Trial, 0, len(s.byTask))
	for _, t := range s.byTask {
		live = append(live, t)
	}
	s.mu.Unlock()
	for _, t := range live {
		if t.requestCancel(reason) {
			s.opts.Runtime.CancelTask(t.TaskID())
		}
	}
	s.opts.Runtime.CancelPending()
}

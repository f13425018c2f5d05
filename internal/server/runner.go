package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/hpo"
	"repro/internal/runtime"
	"repro/internal/store"
)

// ErrNotCancelable reports a cancel request for a study that is neither
// queued nor running (HTTP 409).
var ErrNotCancelable = errors.New("server: study is not queued or running")

// RuntimeFactory builds a fresh task runtime for one study execution plus a
// release function invoked after the study finishes. Each study owns its
// runtime for the run: task registrations (the experiment closure captures
// the study's objective) must not leak between studies.
type RuntimeFactory func(spec StudySpec) (*runtime.Runtime, func(), error)

// Runner executes persisted studies asynchronously: one goroutine per
// started study, gated by the admission queue, builds the study from its
// stored spec and runs it on a factory-provided runtime, recording trials
// through the journal. The admission queue's reservations are the only
// record of in-flight studies. Running studies are registered as live
// hpo.Study handles so Cancel can stop them mid-flight.
type Runner struct {
	store   *store.Journal
	adm     *hpo.AdmissionQueue
	factory RuntimeFactory
	// studies counts study goroutines so Close can wait for them.
	studies sync.WaitGroup
	// Objectives overrides spec→objective construction (tests inject fast
	// synthetic objectives here); nil uses StudySpec.BuildObjective.
	Objectives func(StudySpec) (hpo.Objective, error)
	// DefaultPruner names the pruner applied to specs that leave the
	// field empty ("" = none) — the daemon's -pruner flag.
	DefaultPruner string
	// DefaultScheduler names the rung-driven scheduler applied to specs
	// that leave the field empty ("" = none) — the daemon's -scheduler
	// flag. An active scheduler supersedes DefaultPruner.
	DefaultScheduler string
	// DefaultRungMode is the rung mode applied when an active scheduler's
	// spec leaves rung_mode empty ("" = sync) — the daemon's -rung-mode
	// flag. Daemons serving runtimes smaller than a full Hyperband bracket
	// should default this to "async", or sync studies fail fast at the
	// capacity check.
	DefaultRungMode string

	mu sync.Mutex
	// active maps a study id to its live handle while execute holds it.
	active map[string]*hpo.Study
	// cancelReq marks studies whose cancellation was requested; execute
	// consults it before running and when choosing the terminal state.
	cancelReq map[string]bool
}

// NewRunner builds a runner executing at most maxConcurrent studies at
// once. Every started study gets a goroutine immediately, which blocks in
// AdmissionQueue.Await until the queue grants it one of maxConcurrent
// slots — weighted fair-share ordering decides who runs next under
// contention.
func NewRunner(st *store.Journal, factory RuntimeFactory, maxConcurrent int) *Runner {
	return &Runner{
		store: st, adm: hpo.NewAdmissionQueue(maxConcurrent), factory: factory,
		active:    make(map[string]*hpo.Study),
		cancelReq: make(map[string]bool),
	}
}

// ConfigureTenancy installs the tenant quota resolver and the
// journal-derived epoch-usage resolver on the admission queue. Configure
// before serving traffic.
func (r *Runner) ConfigureTenancy(limits func(tenant string) hpo.TenantLimits, epochs func(tenant string) int) {
	r.adm.SetLimits(limits)
	r.adm.SetEpochUsage(epochs)
}

// SetQueueDepth bounds the admission waiting room (0 = unbounded); a full
// room rejects Start with hpo.ErrBackpressure.
func (r *Runner) SetQueueDepth(n int) { r.adm.SetMaxDepth(n) }

// Admission exposes the admission queue (metrics, tests).
func (r *Runner) Admission() *hpo.AdmissionQueue { return r.adm }

// Start queues a persisted study for execution. Starting a study that is
// already queued or running is a no-op (idempotent); finished (or
// canceled) studies re-run, resuming every recorded trial from the
// journal. Admission is checked first: a tenant at quota gets
// hpo.ErrQuotaExceeded, a full waiting room hpo.ErrBackpressure, a closed
// runner hpo.ErrAdmissionAborted — in every case nothing is journaled.
func (r *Runner) Start(id string) error {
	return r.start(id, nil, false)
}

// StartWait is Start that, when the waiting room is full, blocks for
// space until ctx expires (then hpo.ErrBackpressureTimeout) instead of
// failing fast. Quota rejections still return immediately.
func (r *Runner) StartWait(ctx context.Context, id string) error {
	return r.start(id, ctx, false)
}

// start reserves admission for id and, when this call created the
// reservation, launches the study's goroutine. forced is the restart
// path: studies the journal already recorded as active were admitted once
// and re-enter the room bypassing quota and depth checks.
func (r *Runner) start(id string, waitCtx context.Context, forced bool) error {
	meta, err := r.store.GetStudy(id)
	if err != nil {
		return err
	}
	// Counted before reserving: once Close's Shutdown makes reservations
	// fail, no goroutine can join the group behind its wait.
	r.studies.Add(1)
	switch {
	case forced:
		err = r.adm.ReserveForced(meta.Tenant, id)
	case waitCtx != nil:
		err = r.adm.ReserveWait(waitCtx, meta.Tenant, id)
	default:
		err = r.adm.Reserve(meta.Tenant, id)
	}
	if err != nil {
		r.studies.Done()
		if errors.Is(err, hpo.ErrAlreadyAdmitted) {
			return nil // already queued or running
		}
		return err
	}
	r.mu.Lock()
	delete(r.cancelReq, id) // an explicit restart clears a stale cancel
	r.mu.Unlock()
	if err := r.store.SetStudyState(id, store.StateQueued, "", nil); err != nil {
		r.adm.Release(id)
		r.studies.Done()
		return err
	}
	go func() {
		defer r.studies.Done()
		if r.adm.Await(id) != nil {
			// Reservation withdrawn (cancel or shutdown) before a slot was
			// granted; nothing ran, nothing to release.
			return
		}
		defer r.adm.Release(id)
		// The outcome is journaled as the study's terminal state.
		_ = r.execute(id)
	}()
	return nil
}

// Cancel stops a queued or running study: the live study (if any) receives
// Stop — pending trials are dropped, running ones get cooperative per-task
// cancellation — and the journal records the terminal canceled state, so a
// restarting daemon never re-queues it.
func (r *Runner) Cancel(id string) error {
	meta, err := r.store.GetStudy(id)
	if err != nil {
		return err
	}
	r.mu.Lock()
	study := r.active[id]
	if study != nil || meta.State.Active() {
		r.cancelReq[id] = true
	}
	r.mu.Unlock()
	if study != nil {
		// execute observes the request and journals the canceled state
		// once the in-flight round drains.
		study.Stop("canceled by operator")
		return nil
	}
	if !meta.State.Active() {
		return fmt.Errorf("%w: %s is %s", ErrNotCancelable, id, meta.State)
	}
	// Queued but not yet executing: withdraw the admission reservation (its
	// Await returns the abort, so the worker never runs) and journal the
	// terminal state. If the grant raced us, execute observes cancelReq.
	r.adm.Abort(id)
	return r.store.SetStudyState(id, store.StateCanceled, "canceled by operator", nil)
}

// Resume re-queues every study the journal recorded as queued or running —
// the restart path: finished trials replay from the journal, only the
// remainder executes. Canceled studies are terminal and never re-queued.
// It returns how many studies it re-queued.
func (r *Runner) Resume() (int, error) {
	n := 0
	for _, id := range r.store.ActiveStudies() {
		if err := r.start(id, nil, true); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Close stops accepting work, aborts every study still waiting for
// admission (their journaled queued state resumes them next boot), and
// waits up to drain for executing studies (their journaled trials make
// abandonment safe; zero waits forever). It reports whether every study
// goroutine finished.
func (r *Runner) Close(drain time.Duration) bool {
	r.adm.Shutdown()
	done := make(chan struct{})
	go func() {
		r.studies.Wait()
		close(done)
	}()
	var timeout <-chan time.Time // nil: wait forever
	if drain > 0 {
		timeout = time.After(drain)
	}
	select {
	case <-done:
		return true
	case <-timeout:
		return false
	}
}

// canceled reports whether a cancel was requested for id.
func (r *Runner) canceled(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cancelReq[id]
}

// execute runs one study to completion, transitioning its journal state.
func (r *Runner) execute(id string) error {
	if r.canceled(id) {
		// Canceled while its grant raced Cancel; Cancel already journaled
		// the terminal state.
		return nil
	}
	meta, err := r.store.GetStudy(id)
	if err != nil {
		return err
	}
	spec, err := ParseSpec(meta.Spec)
	if err != nil {
		return r.fail(id, err)
	}
	if err := r.store.SetStudyState(id, store.StateRunning, "", nil); err != nil {
		return err
	}

	sampler, err := spec.buildSampler()
	if err != nil {
		return r.fail(id, err)
	}
	schedSampler, scheduler, err := spec.BuildScheduler(r.DefaultScheduler, r.DefaultRungMode)
	if err != nil {
		return r.fail(id, err)
	}
	if scheduler == nil && spec.RungMode != "" {
		// The spec explicitly asked for a rung mode but no scheduler is
		// active to apply it (no scheduler field and no — or an
		// incompatible — daemon default): failing beats silently running
		// the batch path the user tried to avoid.
		return r.fail(id, fmt.Errorf("server: spec sets rung_mode %q but no rung scheduler is active (spec scheduler %q, daemon default %q)",
			spec.RungMode, spec.Scheduler, r.DefaultScheduler))
	}
	if schedSampler != nil {
		// Rung-driven Hyperband owns both the sampler and scheduler roles.
		sampler = schedSampler
	}
	pruner, err := spec.BuildPruner(r.DefaultPruner)
	if err != nil {
		return r.fail(id, err)
	}
	if scheduler != nil {
		// The scheduler already halts rung losers; a daemon-default pruner
		// must not fight its decisions.
		pruner = nil
	}
	buildObjective := r.Objectives
	if buildObjective == nil {
		buildObjective = StudySpec.BuildObjective
	}
	objective, err := buildObjective(spec)
	if err != nil {
		return r.fail(id, err)
	}
	rt, release, err := r.factory(spec)
	if err != nil {
		return r.fail(id, err)
	}
	defer release()

	var recorder store.Recorder = r.store.Recorder(id, spec.memoScope())
	if !spec.memoize() {
		// Strip the Memoizer extension so the study only resumes its own
		// trials; metric/prune telemetry still flows to the journal.
		recorder = store.WithoutMemo(recorder)
	}
	study, err := hpo.NewStudy(hpo.StudyOptions{
		Sampler:        sampler,
		Objective:      objective,
		Runtime:        rt,
		Constraint:     runtime.Constraint{Cores: spec.Cores},
		BatchSize:      spec.BatchSize,
		TargetAccuracy: spec.Target,
		Seed:           spec.Seed,
		Pruner:         pruner,
		Scheduler:      scheduler,
		Recorder:       recorder,
	})
	if err != nil {
		return r.fail(id, err)
	}

	r.mu.Lock()
	r.active[id] = study
	requested := r.cancelReq[id]
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.active, id)
		r.mu.Unlock()
	}()
	if requested {
		// Cancel raced the study registration: stop before the first round.
		study.Stop("canceled by operator")
	}

	res, err := study.Run()
	if err != nil {
		return r.fail(id, err)
	}
	sum := &store.Summary{
		Trials:   len(res.Trials),
		Resumed:  res.Resumed,
		Memoized: res.Memoized,
		BestAcc:  res.BestAccuracy(),
	}
	if r.canceled(id) || res.Canceled {
		reason := res.CancelReason
		if reason == "" {
			reason = "canceled by operator"
		}
		return r.store.SetStudyState(id, store.StateCanceled, reason, sum)
	}
	return r.store.SetStudyState(id, store.StateDone, "", sum)
}

// fail marks the study failed, preserving the original error. A store
// already closed by shutdown is expected — the study resumes on restart.
func (r *Runner) fail(id string, cause error) error {
	if err := r.store.SetStudyState(id, store.StateFailed, cause.Error(), nil); err != nil {
		return fmt.Errorf("%w (state update: %v)", cause, err)
	}
	return cause
}

// NewStudyID returns a fresh random study identifier.
func NewStudyID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: reading random id: %v", err))
	}
	return "s" + hex.EncodeToString(b[:])
}

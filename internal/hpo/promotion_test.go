package hpo

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/runtime"
	"repro/internal/store"
)

// TestPromoteAfterWorkerDeathRestartFallback: a promoted trial's worker
// dies mid-continuation. The runtime re-queues the task on the surviving
// worker, where it restarts from scratch at its initial budget — the
// restart fallback — and the master re-issues the promotion grant off the
// fresh attempt's report stream, so the trial still reaches its promoted
// budget. The initial budget is 1 on purpose: the promotion lands at the
// epoch-0 report, so the restarted attempt's very first report must
// already trigger the re-grant (the hardest case for restart detection —
// there is no epoch regression to observe).
func TestPromoteAfterWorkerDeathRestartFallback(t *testing.T) {
	RegisterWireTypes()
	var executed atomic.Int64
	var attempts atomic.Int64
	promotedOnce := make(chan struct{})
	var signal sync.Once
	release := make(chan struct{})
	defer close(release)

	obj := &FuncObjective{ObjName: "death", Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
		attempt := attempts.Add(1)
		total := ctx.Config.Int("num_epochs", 1)
		if ctx.Proceed != nil && ctx.EpochCeiling > total {
			total = ctx.EpochCeiling
		}
		var m TrialMetrics
		for e := 0; e < total; e++ {
			if ctx.Halt != nil && ctx.Halt() != "" {
				m.Stopped = true
				return m, nil
			}
			executed.Add(1)
			m.Epochs = e + 1
			m.FinalAcc, m.BestAcc = 0.5, 0.5
			if ctx.Report != nil {
				ctx.Report(e, 0.5)
			}
			if attempt == 1 && e == 1 {
				// Past the initial budget of 1: the promotion took effect.
				// Freeze this attempt so the test can kill its worker.
				signal.Do(func() { close(promotedOnce) })
				<-release
				m.Stopped = true
				return m, nil
			}
			if e+1 < total && ctx.Proceed != nil && !ctx.Proceed(e+1) {
				m.Stopped = true
				return m, nil
			}
		}
		return m, nil
	}}

	rt, err := runtime.New(runtime.Options{Backend: runtime.Remote})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	def := ExperimentTaskDef(obj, runtime.Constraint{Cores: 1}, 1, 0)
	if err := rt.Register(def); err != nil {
		t.Fatal(err)
	}
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Two workers; the first (node 0) will host the trial and die.
	var transports []comm.Transport
	for i := 0; i < 2; i++ {
		w := runtime.NewWorker(1, 0)
		if err := w.Register(def); err != nil {
			t.Fatal(err)
		}
		tr, err := comm.Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		transports = append(transports, tr)
		go func() { _ = w.Serve(tr) }()
		if _, err := rt.AttachWorker(mustAccept(t, ln)); err != nil {
			t.Fatal(err)
		}
	}

	space, err := ParseSpaceJSON([]byte(`{"acc": [0.5], "num_epochs": [1]}`))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStudy(StudyOptions{
		Sampler:   NewGridSearch(space),
		Scheduler: NewASHAScheduler(3, 1, 9),
		Objective: obj,
		Runtime:   rt,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan *StudyResult, 1)
	go func() {
		res, err := st.Run()
		if err != nil {
			t.Errorf("study: %v", err)
		}
		done <- res
	}()

	select {
	case <-promotedOnce:
	case <-time.After(10 * time.Second):
		t.Fatal("trial never continued past its initial budget")
	}
	// Kill the first worker mid-continuation.
	transports[0].Close()

	var res *StudyResult
	select {
	case res = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("study never finished after the worker death")
	}
	if res == nil || len(res.Trials) != 1 {
		t.Fatalf("res = %+v", res)
	}
	trial := res.Trials[0]
	if !trial.Succeeded() || trial.Epochs != 9 {
		t.Fatalf("restarted trial = %+v, want a success at the promoted budget of 9 epochs", trial)
	}
	if !trial.Promoted {
		t.Fatalf("restarted trial not marked promoted: %+v", trial)
	}
	if attempts.Load() < 2 {
		t.Fatalf("trial ran %d attempts, want a restart after the worker death", attempts.Load())
	}
	// The restart fallback re-executes from scratch: 2 epochs on the dead
	// worker (1 + the first promoted one), then all 9 on the survivor.
	if got := executed.Load(); got != 11 {
		t.Fatalf("executed %d epochs, want 11 (2 before the death + 9 restarted)", got)
	}
}

func mustAccept(t *testing.T, ln *comm.Listener) comm.Transport {
	t.Helper()
	tr, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPromoteRacesCancel: an operator cancel lands while bracket members
// are paused at a rung gate and another is still mid-epoch. Late rung
// decisions (including promotions) aimed at canceled trials must be
// harmless, and the study must drain without deadlock.
func TestPromoteRacesCancel(t *testing.T) {
	rt := newStudyRuntime(t, 9)
	defer rt.Shutdown()

	var entered atomic.Int64
	block := make(chan struct{})
	var st *Study
	var stopOnce sync.Once

	obj := &FuncObjective{ObjName: "race", Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
		if entered.Add(1) == 1 {
			// One member holds the rung open so the others pause at the
			// gate before any decision can fire.
			<-block
		}
		total := ctx.Config.Int("num_epochs", 1)
		if ctx.Proceed != nil && ctx.EpochCeiling > total {
			total = ctx.EpochCeiling
		}
		var m TrialMetrics
		for e := 0; e < total; e++ {
			if ctx.Halt != nil && ctx.Halt() != "" {
				m.Stopped = true
				return m, nil
			}
			v := rungValue(ctx.Config, e, 3)
			m.Epochs, m.BestAcc, m.FinalAcc = e+1, v, v
			if ctx.Report != nil {
				ctx.Report(e, v)
			}
			if e+1 < total && ctx.Proceed != nil && !ctx.Proceed(e+1) {
				m.Stopped = true
				return m, nil
			}
		}
		return m, nil
	}}

	rh := NewRungHyperband(rungSpace(t), 3, 3, 7)
	// OnEpoch runs on the reporting tasks' goroutines, concurrently.
	var paused atomic.Int64
	var err error
	st, err = NewStudy(StudyOptions{
		Sampler:   rh,
		Scheduler: rh,
		Objective: obj,
		Runtime:   rt,
		OnEpoch: func(trial, epoch int, acc float64) {
			if epoch != 0 {
				return
			}
			// Two of the three bracket-0 members have reported (the third
			// holds the rung open): both are about to pause at the gate.
			// Cancel the study right here, then release the holdout —
			// its report completes the rung and the scheduler's decisions
			// race the cancellation.
			if paused.Add(1) == 2 {
				stopOnce.Do(func() {
					go st.Stop("operator cancel racing promotion")
					close(block)
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan *StudyResult, 1)
	go func() {
		res, err := st.Run()
		if err != nil {
			t.Errorf("study: %v", err)
		}
		done <- res
	}()
	var res *StudyResult
	select {
	case res = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("study deadlocked: promote racing cancel")
	}
	if res == nil || !res.Canceled {
		t.Fatalf("res = %+v, want a canceled study", res)
	}
	for _, h := range st.Trials() {
		if !h.State().Terminal() {
			t.Fatalf("trial %d left %v after cancel", h.ID, h.State())
		}
	}
}

// TestRungResumeReplaysPromotesWithoutReexecution: a rung-driven study
// records its promotions in the journal; reopening the journal replays
// them, and re-running the study resumes every finished trial — winners'
// completed rungs are never re-executed.
func TestRungResumeReplaysPromotesWithoutReexecution(t *testing.T) {
	const maxR, eta, seed, scope = 9, 3, 42, "rung-resume"
	dir := filepath.Join(t.TempDir(), "j")
	space := rungSpace(t)
	var executed atomic.Int64

	runStudy := func(j *store.Journal) *StudyResult {
		t.Helper()
		rt := newStudyRuntime(t, 9)
		defer rt.Shutdown()
		rh := NewRungHyperband(space, maxR, eta, seed)
		st, err := NewStudy(StudyOptions{
			Sampler: rh, Scheduler: rh,
			Objective: gatedObjective(maxR, &executed),
			Runtime:   rt,
			Recorder:  j.Recorder("rung", scope),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	j1, err := store.OpenJournal(dir, store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.CreateStudy(store.StudyMeta{ID: "rung"}); err != nil {
		t.Fatal(err)
	}
	res1 := runStudy(j1)
	first := executed.Load()
	live := j1.StudyPromotes("rung")
	if len(live) != 5 {
		t.Fatalf("first run journaled %d promotions, want 5", len(live))
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: boot replay must reconstruct the promotion history.
	j2, err := store.OpenJournal(dir, store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	replayed := j2.StudyPromotes("rung")
	if len(replayed) != 5 {
		t.Fatalf("replay reconstructed %d promotions, want 5", len(replayed))
	}
	for i, p := range replayed {
		if p.Budget <= 0 || p.Reason == "" {
			t.Fatalf("replayed promotion %d malformed: %+v", i, p)
		}
	}

	// Re-run: every succeeded trial resumes from the journal; only pruned
	// losers re-execute, so no finished rung runs twice.
	res2 := runStudy(j2)
	second := executed.Load() - first

	succeeded := 0
	for _, tr := range res1.Trials {
		if tr.Succeeded() {
			succeeded++
		}
	}
	if res2.Resumed != succeeded {
		t.Fatalf("second run resumed %d trials, want all %d successes of the first", res2.Resumed, succeeded)
	}
	if second >= first {
		t.Fatalf("second run executed %d epochs, want strictly < first run's %d", second, first)
	}
	// Accounting: live epochs == total trial epochs minus the resumed
	// trials' (never re-executed) epochs.
	var total, resumedEpochs int64
	resumedSeen := 0
	byFP := make(map[string]int)
	for _, tr := range res1.Trials {
		if tr.Succeeded() {
			byFP[tr.Config.Fingerprint()] = tr.Epochs
		}
	}
	for _, tr := range res2.Trials {
		total += int64(tr.Epochs)
		if n, ok := byFP[tr.Config.Fingerprint()]; ok && tr.Epochs == n {
			resumedEpochs += int64(n)
			resumedSeen++
		}
	}
	if resumedSeen < succeeded {
		t.Fatalf("only %d of %d resumed trials kept their recorded epochs", resumedSeen, succeeded)
	}
	if total-resumedEpochs != second {
		t.Fatalf("second run executed %d epochs but non-resumed trials account for %d — a finished rung re-ran",
			second, total-resumedEpochs)
	}
	if w1, w2 := res1.Best.Config.Float("acc", -1), res2.Best.Config.Float("acc", -2); w1 != w2 {
		t.Fatalf("resume changed the winner: %v vs %v", w1, w2)
	}
}

package hpo

import (
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/store"
)

// TestAsyncRungHyperbandCapacityOneE2E is the tentpole acceptance test for
// asynchronous rung mode: the exact cluster-smaller-than-the-bracket
// scenario the synchronous mode rejects. On a 1-slot runtime sync rung
// mode fails fast at MinSlots, and async rung mode completes — per-arrival
// decisions never barrier a rung — selecting successive halving's winner
// within the 78 epochs (R=9, η=3) that re-training every rung would cost.
func TestAsyncRungHyperbandCapacityOneE2E(t *testing.T) {
	const maxR, eta, seed = 9, 3, 42
	space := rungSpace(t)
	var executed atomic.Int64
	obj := gatedObjective(maxR, &executed)

	// --- Sync rung mode still refuses: one slot cannot hold a 9-member
	// rung at its barrier.
	rtSync := newStudyRuntime(t, 1)
	defer rtSync.Shutdown()
	rhSync := NewRungHyperband(space, maxR, eta, seed)
	stSync, err := NewStudy(StudyOptions{
		Sampler: rhSync, Scheduler: rhSync, Objective: obj, Runtime: rtSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stSync.Run(); err == nil {
		t.Fatal("sync rung mode accepted a 1-slot runtime — would deadlock")
	}
	if got := executed.Load(); got != 0 {
		t.Fatalf("failed sync run executed %d epochs", got)
	}

	// --- Async rung mode completes on the 1-slot runtime.
	rtAsync := newStudyRuntime(t, 1)
	defer rtAsync.Shutdown()
	rh := NewRungHyperbandAsync(space, maxR, eta, seed)
	_, baseline, wantWinner := shaOracle(rh)
	if baseline != 78 {
		t.Fatalf("re-train baseline is %d epochs, want 78", baseline)
	}
	st, err := NewStudy(StudyOptions{
		Sampler: rh, Scheduler: rh, Objective: obj, Runtime: rtAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	asyncExecuted := executed.Load()

	// Successive halving's winner, within the re-train epoch budget.
	if res.Best == nil {
		t.Fatal("no winner")
	}
	if aw := res.Best.Config.Float("acc", -1); aw != wantWinner {
		t.Fatalf("async winner acc=%v, want successive halving's acc=%v", aw, wantWinner)
	}
	if asyncExecuted > int64(baseline) {
		t.Fatalf("async mode executed %d epochs, want <= the %d-epoch re-train baseline", asyncExecuted, baseline)
	}
	if res.Best.Epochs != maxR {
		t.Fatalf("async winner trained %d epochs, want promoted to R=%d", res.Best.Epochs, maxR)
	}

	// Trials were submitted once and continued in place: the global epoch
	// counter equals the per-trial sum (nothing re-ran), and at least one
	// trial was promoted past its submitted budget.
	var sum int64
	promoted := 0
	for _, tr := range res.Trials {
		sum += int64(tr.Epochs)
		if tr.Epochs > tr.Config.Int("num_epochs", 0) {
			promoted++
		}
	}
	if sum != asyncExecuted {
		t.Fatalf("executed %d epochs but trials account for %d — some epochs re-ran", asyncExecuted, sum)
	}
	if promoted == 0 {
		t.Fatal("no trial continued past its initial budget")
	}
}

// fakeClockRun drives an async RungHyperband on a simulated slot-limited
// executor with a fake clock: each epoch costs one tick, slots admit from
// the scheduler's waiting room the moment they free up, and decisions
// apply instantly. Returns the simulated makespan, the total executed
// epochs and the best final value.
func fakeClockRun(t *testing.T, rh *RungHyperband, slots, maxR int) (makespan, totalEpochs int, best float64) {
	t.Helper()
	type live struct {
		cfg   Config
		limit int
		epoch int
		best  float64
	}
	running := map[int]*live{}
	nextID := 0
	rh.SetCapacity(slots)

	var complete func(id int, pruned bool)
	apply := func(decisions []SchedDecision) {
		for _, d := range decisions {
			tr := running[d.TrialID]
			if tr == nil {
				t.Fatalf("decision for unknown trial %d: %+v", d.TrialID, d)
			}
			if d.Budget == 0 {
				complete(d.TrialID, true)
				continue
			}
			if d.Budget <= tr.limit {
				t.Fatalf("trial %d re-granted %d (already %d)", d.TrialID, d.Budget, tr.limit)
			}
			tr.limit = d.Budget
		}
	}
	complete = func(id int, pruned bool) {
		tr := running[id]
		res := TrialResult{ID: id, Config: tr.cfg, Pruned: pruned,
			TrialMetrics: TrialMetrics{BestAcc: tr.best, Epochs: tr.epoch}}
		if tr.best > best && !pruned {
			best = tr.best
		}
		delete(running, id)
		apply(rh.Complete(id, &res))
	}

	for tick := 0; ; tick++ {
		if tick > 10000 {
			t.Fatal("fake clock ran away")
		}
		// Admit members as slots free up.
		for free := slots - len(running); free > 0; free = slots - len(running) {
			cfgs := rh.Ask(free)
			if len(cfgs) == 0 {
				break
			}
			for _, cfg := range cfgs {
				id := nextID
				nextID++
				base := cfg.Int("num_epochs", 0)
				rh.Admit(id, base, cfg)
				running[id] = &live{cfg: cfg, limit: base}
			}
		}
		if len(running) == 0 {
			if !rh.Done() {
				t.Fatal("fake clock stalled: nothing running, scheduler not done")
			}
			return tick, totalEpochs, best
		}
		// One tick: every running trial trains one epoch; boundary
		// arrivals are decided on the spot.
		ids := make([]int, 0, len(running))
		for id := range running {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			tr := running[id]
			if tr == nil {
				continue
			}
			v := rungValue(tr.cfg, tr.epoch, maxR)
			if v > tr.best {
				tr.best = v
			}
			tr.epoch++
			totalEpochs++
			apply(rh.Observe(id, tr.epoch-1, v))
			if tr := running[id]; tr != nil && tr.epoch >= tr.limit {
				complete(id, false)
			}
		}
	}
}

// TestAsyncParallelBracketsBeatSequentialWallClock: with per-bracket
// parallel execution, members of later brackets fill the slots a draining
// bracket leaves idle, so the simulated makespan drops strictly below the
// sequential bracket drain — with identical total work, because rung
// decisions only rank members within their own bracket and the
// within-bracket arrival order is unchanged.
func TestAsyncParallelBracketsBeatSequentialWallClock(t *testing.T) {
	const maxR, eta, seed, slots = 9, 3, 42, 4
	space := rungSpace(t)

	seq := NewRungHyperbandAsync(space, maxR, eta, seed)
	seq.parallel = false // the sequential bracket drain of the sync mode
	seqSpan, seqEpochs, seqBest := fakeClockRun(t, seq, slots, maxR)

	par := NewRungHyperbandAsync(space, maxR, eta, seed)
	parSpan, parEpochs, parBest := fakeClockRun(t, par, slots, maxR)

	if parSpan >= seqSpan {
		t.Fatalf("parallel brackets took %d ticks, want strictly < sequential drain's %d", parSpan, seqSpan)
	}
	if parEpochs != seqEpochs {
		t.Fatalf("parallel brackets executed %d epochs vs sequential %d — interleaving changed rung decisions", parEpochs, seqEpochs)
	}
	if parBest != seqBest {
		t.Fatalf("parallel winner %v differs from sequential %v", parBest, seqBest)
	}
}

// TestAsyncLoopBackfillsFreedSlots pins the non-barrier drain on the real
// execution path (not just the fake-clock harness): on a 2-slot runtime,
// when one admitted member exits early, the next waiting-room member must
// be admitted while the other admitted member is still running. The slow
// member blocks until the backfilled member starts — under a round-barrier
// loop that admission never happens and the slow member trips its escape
// timeout, failing the test.
func TestAsyncLoopBackfillsFreedSlots(t *testing.T) {
	rt := newStudyRuntime(t, 2)
	defer rt.Shutdown()

	started := make(chan struct{})
	var startedOnce sync.Once
	var timedOut atomic.Bool
	// Bracket structure at R=3, η=3: [b1-0 b1-1 b1-2] with ladder [1,3],
	// then [b0-3 b0-4] with ladder [3]. Values keyed off the hidden member
	// id give a fixed quality order without depending on sampled params.
	values := map[string]float64{"b1-0": 0.9, "b1-1": 0.1, "b1-2": 0.2, "b0-3": 0.3, "b0-4": 0.4}

	obj := &FuncObjective{ObjName: "backfill", Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
		key := ctx.Config.Str("_hb", "")
		total := ctx.Config.Int("num_epochs", 1)
		if ctx.Proceed != nil && ctx.EpochCeiling > total {
			total = ctx.EpochCeiling
		}
		if key == "b1-2" {
			startedOnce.Do(func() { close(started) })
		}
		var m TrialMetrics
		for e := 0; e < total; e++ {
			if ctx.Halt != nil && ctx.Halt() != "" {
				m.Stopped = true
				return m, nil
			}
			if key == "b1-0" && e == 1 {
				// Promoted past the first rung: hold this slot until the
				// third member of the bracket has been admitted.
				select {
				case <-started:
				case <-time.After(10 * time.Second):
					timedOut.Store(true)
				}
			}
			v := values[key] * float64(e+1) / 3
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

	rh := NewRungHyperbandAsync(rungSpace(t), 3, 3, 7)
	st, err := NewStudy(StudyOptions{
		Sampler: rh, Scheduler: rh, Objective: obj, Runtime: rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("waiting-room member was not admitted while a slot sat free — the async loop round-barriered")
	}
	if len(res.Trials) != 5 {
		t.Fatalf("res has %d trials, want all 5 bracket members", len(res.Trials))
	}
}

// TestAsyncRungRestartDoesNotDoublePromote pins the worker-death contract
// of async rungs: a re-queued attempt restarts from scratch and re-reports
// its boundary epochs, and those duplicate arrivals must neither rank a
// second time nor emit a second promotion.
func TestAsyncRungRestartDoesNotDoublePromote(t *testing.T) {
	rh := NewRungHyperbandAsync(rungSpace(t), 9, 3, 42)
	cfgs := rh.Ask(0)
	if len(cfgs) != 17 {
		t.Fatalf("async Ask handed %d members, want all 17 (9+5+3 brackets in parallel)", len(cfgs))
	}
	// First member belongs to bracket 0 (ladder [1,3,9]).
	rh.Admit(0, cfgs[0].Int("num_epochs", 0), cfgs[0])

	d := rh.Observe(0, 0, 0.9)
	if len(d) != 1 || d[0].Budget != 3 {
		t.Fatalf("first arrival = %+v, want promotion to 3", d)
	}
	// The worker dies; the fresh attempt re-reports epoch 0.
	if d := rh.Observe(0, 0, 0.9); len(d) != 0 {
		t.Fatalf("restarted attempt re-decided rung 0: %+v", d)
	}
	// Mid-rung epochs decide nothing.
	if d := rh.Observe(0, 1, 0.91); len(d) != 0 {
		t.Fatalf("mid-rung epoch decided: %+v", d)
	}
	// The next boundary decides exactly once.
	d = rh.Observe(0, 2, 0.95)
	if len(d) != 1 || d[0].Budget != 9 {
		t.Fatalf("rung-1 arrival = %+v, want promotion to 9", d)
	}
	if d := rh.Observe(0, 2, 0.95); len(d) != 0 {
		t.Fatalf("duplicate rung-1 arrival re-decided: %+v", d)
	}

	// A clearly losing later arrival at rung 0 halts per-arrival (keep is
	// max(1, 2/3) = 1 and the first arrival's 0.9 holds the spot).
	rh.Admit(1, cfgs[1].Int("num_epochs", 0), cfgs[1])
	d = rh.Observe(1, 0, 0.1)
	if len(d) != 1 || d[0].Budget != 0 {
		t.Fatalf("losing arrival = %+v, want halt", d)
	}
	// A halted member never decides again, even at a later epoch.
	if d := rh.Observe(1, 2, 0.99); len(d) != 0 {
		t.Fatalf("halted member decided: %+v", d)
	}
}

// TestAsyncRungZeroCapacityFailsFast: an async rung study on a runtime
// with zero healthy nodes (a Remote backend no worker ever attached to)
// must return a clean error instead of queueing trials that can never run.
func TestAsyncRungZeroCapacityFailsFast(t *testing.T) {
	rt, err := runtime.New(runtime.Options{Backend: runtime.Remote})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var executed atomic.Int64
	rh := NewRungHyperbandAsync(rungSpace(t), 9, 3, 1)
	st, err := NewStudy(StudyOptions{
		Sampler: rh, Scheduler: rh,
		Objective: gatedObjective(9, &executed), Runtime: rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := st.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("zero-capacity runtime accepted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("zero-capacity study hung instead of erroring")
	}
	if executed.Load() != 0 {
		t.Fatalf("zero-capacity study executed %d epochs", executed.Load())
	}
}

// TestAsyncRungResumeSkipsFinishedTrials: an async rung study journals its
// trials and promotions; re-running over the same journal resumes every
// success — resumed members anchor the rung ranking pools so the replay
// never re-executes a finished winner, even though promote records were
// written per-arrival rather than rung-by-rung.
func TestAsyncRungResumeSkipsFinishedTrials(t *testing.T) {
	const maxR, eta, seed, scope = 9, 3, 42, "async-resume"
	dir := filepath.Join(t.TempDir(), "j")
	space := rungSpace(t)
	var executed atomic.Int64

	runStudy := func(j *store.Journal) *StudyResult {
		t.Helper()
		rt := newStudyRuntime(t, 2)
		defer rt.Shutdown()
		rh := NewRungHyperbandAsync(space, maxR, eta, seed)
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
	if len(j1.StudyPromotes("rung")) == 0 {
		t.Fatal("first run journaled no promotions")
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := store.OpenJournal(dir, store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
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
	if w1, w2 := res1.Best.Config.Float("acc", -1), res2.Best.Config.Float("acc", -2); w1 != w2 {
		t.Fatalf("resume changed the winner: %v vs %v", w1, w2)
	}
}

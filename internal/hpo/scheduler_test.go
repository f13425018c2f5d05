package hpo

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/runtime"
	"repro/internal/store"
)

// rungSpace is a continuous space: every sampled config gets a distinct
// "acc" driving a strict, deterministic quality ordering.
func rungSpace(t *testing.T) *Space {
	t.Helper()
	s, err := ParseSpaceJSON([]byte(`{"acc": {"type": "float", "min": 0.1, "max": 0.9}}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rungValue is the deterministic metric every test objective reports:
// monotone in epochs, ordered by the config's acc.
func rungValue(cfg Config, epoch, maxR int) float64 {
	return cfg.Float("acc", 0) * float64(epoch+1) / float64(maxR)
}

// shaOracle is Li et al.'s successive halving over the members' known acc
// values — the reference the rung scheduler's promotions must reproduce.
// Every bracket member is evaluated at the first rung, and each rung keeps
// the top ⌊n/η⌋ by acc (rungValue's order at any one epoch) for the next.
// It returns every evaluation as "acc@budget" → count, the epochs a run
// that re-trains each rung's survivors from scratch executes, and the
// winner: the highest-scoring member that reached its bracket's last rung.
func shaOracle(rh *RungHyperband) (evals map[string]int, retrainEpochs int, winner float64) {
	evals = make(map[string]int)
	best := -1.0
	for _, b := range rh.brackets {
		alive := append([]*rungMember(nil), b.members...)
		for k, budget := range b.budgets {
			if k > 0 {
				sort.Slice(alive, func(i, j int) bool {
					return alive[i].cfg.Float("acc", 0) > alive[j].cfg.Float("acc", 0)
				})
				alive = alive[:len(alive)/rh.Eta]
			}
			for _, m := range alive {
				evals[fmt.Sprintf("%v@%d", m.cfg["acc"], budget)]++
				retrainEpochs += budget
				if v := rungValue(m.cfg, budget-1, rh.MaxR); k == len(b.budgets)-1 && v > best {
					best, winner = v, m.cfg.Float("acc", 0)
				}
			}
		}
	}
	return evals, retrainEpochs, winner
}

// TestRungHyperbandConformance pins the rung-driven scheduler to successive
// halving: bracket sizes 9/5/3 for R=9,η=3, their rung budgets, and exactly
// shaOracle's promotion sets — while the executed epoch count drops
// strictly below the re-train-every-rung baseline.
func TestRungHyperbandConformance(t *testing.T) {
	const maxR, eta, seed = 9, 3, 42
	space := rungSpace(t)

	// --- Structure: 9/5/3 brackets with rung ladders [1,3,9]/[3,9]/[9].
	rh := NewRungHyperband(space, maxR, eta, seed)
	var sizes []int
	var ladders [][]int
	for _, b := range rh.brackets {
		sizes = append(sizes, len(b.members))
		ladders = append(ladders, b.budgets)
	}
	if fmt.Sprint(sizes) != "[9 5 3]" {
		t.Fatalf("bracket sizes = %v, want [9 5 3]", sizes)
	}
	if fmt.Sprint(ladders) != "[[1 3 9] [3 9] [9]]" {
		t.Fatalf("rung ladders = %v, want [[1 3 9] [3 9] [9]]", ladders)
	}
	if rh.MinSlots() != 9 {
		t.Fatalf("MinSlots = %d, want 9", rh.MinSlots())
	}

	// --- Reference evaluations.
	oracle, retrainEpochs, _ := shaOracle(rh)

	// --- Drive the rung scheduler through a simulated live report stream.
	rungEvals, granted, rungEpochs := driveSyncRungs(t, rh)

	// --- Conformance: every (config, budget) successive halving evaluates
	// is exactly the set the rung scheduler reached.
	for key, n := range oracle {
		if rungEvals[key] < n {
			t.Errorf("successive halving evaluates %s ×%d, rung reached it ×%d", key, n, rungEvals[key])
		}
	}
	for key := range rungEvals {
		if oracle[key] == 0 {
			t.Errorf("rung reached %s which successive halving never evaluates", key)
		}
	}
	// Pinned promotion counts: bracket0 promotes 3 then 1, bracket1
	// promotes 1, bracket2 none — 5 total.
	if granted != 5 {
		t.Errorf("promotions = %d, want exactly 5 grants", granted)
	}
	// Epoch savings: promoted trials never re-run completed epochs, so the
	// rung-driven total is strictly below the re-train baseline.
	if retrainEpochs != 78 {
		t.Errorf("re-train baseline is %d epochs, want 78 (9+9+9 + 15+9 + 27)", retrainEpochs)
	}
	if rungEpochs >= retrainEpochs {
		t.Errorf("rung-driven executed %d epochs, want strictly < re-train %d", rungEpochs, retrainEpochs)
	}
	if rungEpochs != 69 {
		t.Errorf("rung-driven executed %d epochs, want 69", rungEpochs)
	}
}

// driveSyncRungs runs a sync RungHyperband to completion through a
// simulated live report stream: every admitted trial trains to its current
// limit reporting rungValue each epoch, and decisions raise limits or halt.
// It returns every rung budget a member reached — its first rung at
// admission, then each promotion — as "acc@budget" → count, the number of
// promotions granted, and the epochs executed.
func driveSyncRungs(t *testing.T, rh *RungHyperband) (reached map[string]int, granted, epochs int) {
	t.Helper()
	type live struct {
		cfg     Config
		limit   int
		ceiling int
		epoch   int // epochs executed so far
		best    float64
	}
	trials := make(map[int]*live)
	reached = make(map[string]int)
	nextID := 0

	var apply func(decisions []SchedDecision)
	apply = func(decisions []SchedDecision) {
		for _, d := range decisions {
			tr := trials[d.TrialID]
			if tr == nil {
				t.Fatalf("decision for unknown trial %d", d.TrialID)
			}
			if d.Budget == 0 {
				// Halted through the prune path: exits with partial metrics.
				res := TrialResult{ID: d.TrialID, Config: tr.cfg, Pruned: true,
					TrialMetrics: TrialMetrics{BestAcc: tr.best, Epochs: tr.epoch}}
				delete(trials, d.TrialID)
				apply(rh.Complete(d.TrialID, &res))
				continue
			}
			if d.Budget <= tr.limit {
				t.Fatalf("trial %d re-granted %d (already %d)", d.TrialID, d.Budget, tr.limit)
			}
			granted++
			reached[fmt.Sprintf("%v@%d", tr.cfg["acc"], d.Budget)]++
			tr.limit = d.Budget
		}
	}

	for rounds := 0; !rh.Done() && rounds < 100; rounds++ {
		configs := rh.Ask(0)
		if len(configs) == 0 {
			if rh.Done() {
				break
			}
			t.Fatal("rung hyperband stalled")
		}
		for _, cfg := range configs {
			id := nextID
			nextID++
			base := cfg.Int("num_epochs", 0)
			ceiling := cfg.Int("_hb_max", base)
			rh.Admit(id, base, cfg)
			trials[id] = &live{cfg: cfg, limit: base, ceiling: ceiling}
			reached[fmt.Sprintf("%v@%d", cfg["acc"], base)]++
		}
		// Run the bracket: every live trial trains to its current limit,
		// streaming per-epoch reports; decisions raise limits or halt.
		for progress := true; progress; {
			progress = false
			for id, tr := range trials {
				for tr.epoch < tr.limit {
					progress = true
					v := rungValue(tr.cfg, tr.epoch, rh.MaxR)
					if v > tr.best {
						tr.best = v
					}
					tr.epoch++
					epochs++
					if tr.epoch > tr.limit {
						t.Fatalf("trial %d trained past its budget", id)
					}
					apply(rh.Observe(id, tr.epoch-1, v))
					if trials[id] == nil {
						break // halted mid-loop
					}
				}
				if trials[id] == nil {
					continue
				}
				if tr.epoch == tr.ceiling {
					// Trained to the ceiling: completes naturally.
					res := TrialResult{ID: id, Config: tr.cfg,
						TrialMetrics: TrialMetrics{BestAcc: tr.best, Epochs: tr.epoch}}
					delete(trials, id)
					progress = true
					apply(rh.Complete(id, &res))
				}
			}
		}
		if len(trials) != 0 {
			t.Fatalf("%d trials left paused with no pending decision (deadlock)", len(trials))
		}
	}
	return reached, granted, epochs
}

// gatedObjective honours the full trial-continuation contract: it plans for
// the promotion ceiling, consults Proceed at each boundary, streams every
// epoch and counts executed epochs globally.
func gatedObjective(maxR int, counter *atomic.Int64) *FuncObjective {
	return &FuncObjective{ObjName: "gated", Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
		total := ctx.Config.Int("num_epochs", 1)
		if ctx.Proceed != nil && ctx.EpochCeiling > total {
			total = ctx.EpochCeiling
		}
		var m TrialMetrics
		for e := 0; e < total; e++ {
			if ctx.Halt != nil {
				if reason := ctx.Halt(); reason != "" {
					m.Stopped, m.StopReason = true, reason
					return m, nil
				}
			}
			v := rungValue(ctx.Config, e, maxR)
			counter.Add(1)
			m.Epochs = e + 1
			m.FinalAcc, m.BestAcc = v, v
			m.ValAccHistory = append(m.ValAccHistory, v)
			if ctx.Report != nil {
				ctx.Report(e, v)
			}
			if e+1 < total && ctx.Proceed != nil && !ctx.Proceed(e+1) {
				m.Stopped, m.StopReason = true, "epoch budget exhausted"
				return m, nil
			}
		}
		return m, nil
	}}
}

// TestRungHyperbandRemoteE2E is the tentpole acceptance test: rung-driven
// Hyperband on the real TCP Remote backend must execute strictly fewer
// total epochs than re-training every rung (78 at R=9, η=3), select
// successive halving's winning config, and promote trials past their
// initial budget without re-running completed epochs.
func TestRungHyperbandRemoteE2E(t *testing.T) {
	const maxR, eta, seed = 9, 3, 42
	space := rungSpace(t)
	var executed atomic.Int64

	rt, err := runtime.New(runtime.Options{Backend: runtime.Remote})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	makeObjective := func() (Objective, error) { return gatedObjective(maxR, &executed), nil }
	// 3 workers × 3 cores: exactly the 9 slots the largest bracket needs.
	if err := ServeWorkers(rt, makeObjective, runtime.Constraint{Cores: 1}, 1, 0, 3, 3, func(err error) {
		t.Errorf("worker exited: %v", err)
	}); err != nil {
		t.Fatal(err)
	}
	obj, _ := makeObjective()

	// --- Rung-driven run with journaled promotions.
	journal, err := store.OpenJournal(filepath.Join(t.TempDir(), "rung.journal"), store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	if err := journal.CreateStudy(store.StudyMeta{ID: "rung"}); err != nil {
		t.Fatal(err)
	}
	rh := NewRungHyperband(space, maxR, eta, seed)
	_, baseline, wantWinner := shaOracle(rh)
	st, err := NewStudy(StudyOptions{
		Sampler:   rh,
		Scheduler: rh,
		Objective: obj,
		Runtime:   rt,
		Recorder:  journal.Recorder("rung", "rung-e2e"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	rungExecuted := executed.Load()

	// Strictly fewer epochs, successive halving's winner.
	if rungExecuted >= int64(baseline) {
		t.Fatalf("rung-driven executed %d epochs, want strictly < re-train baseline %d", rungExecuted, baseline)
	}
	if res.Best == nil {
		t.Fatal("no winner")
	}
	if rw := res.Best.Config.Float("acc", -1); rw != wantWinner {
		t.Fatalf("winner acc=%v (%.4f), want successive halving's acc=%v", rw, res.Best.BestAcc, wantWinner)
	}

	// Promoted trials continued past their initial budget on the same
	// worker: no epoch was executed twice, so the global counter equals
	// the per-trial sum exactly.
	var sum int64
	promoted := 0
	for _, tr := range res.Trials {
		sum += int64(tr.Epochs)
		if tr.Epochs > tr.Config.Int("num_epochs", 0) {
			promoted++
			if !tr.Succeeded() && !tr.Pruned {
				t.Fatalf("promoted trial ended badly: %+v", tr)
			}
		}
	}
	if sum != rungExecuted {
		t.Fatalf("executed %d epochs but trials account for %d — some epochs re-ran", rungExecuted, sum)
	}
	if promoted == 0 {
		t.Fatal("no trial continued past its initial budget")
	}
	if res.Best.Epochs != maxR || res.Best.Config.Int("num_epochs", 0) >= maxR {
		t.Fatalf("winner should have been promoted to R=%d epochs: %+v", maxR, res.Best)
	}

	// Promotions were journaled for resume.
	if promos := journal.StudyPromotes("rung"); len(promos) != 5 {
		t.Fatalf("journal recorded %d promotions, want 5 (3+1 bracket0, 1 bracket1)", len(promos))
	}
}

// TestRungHyperbandRejectsUndersizedRuntime: fewer slots than the largest
// bracket must fail fast instead of deadlocking paused trials against
// queued ones.
func TestRungHyperbandRejectsUndersizedRuntime(t *testing.T) {
	rt := newStudyRuntime(t, 4) // 4 slots < 9-member bracket
	defer rt.Shutdown()
	var executed atomic.Int64
	rh := NewRungHyperband(rungSpace(t), 9, 3, 1)
	st, err := NewStudy(StudyOptions{
		Sampler: rh, Scheduler: rh,
		Objective: gatedObjective(9, &executed), Runtime: rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err == nil {
		t.Fatal("undersized runtime accepted — would deadlock")
	}
}

// TestSchedulerValidation: scheduler requires a streaming backend and is
// mutually exclusive with a pruner.
func TestSchedulerValidation(t *testing.T) {
	rh := NewRungHyperband(rungSpace(t), 9, 3, 1)
	var executed atomic.Int64
	obj := gatedObjective(9, &executed)
	rt := newStudyRuntime(t, 9)
	defer rt.Shutdown()
	if _, err := NewStudy(StudyOptions{
		Sampler: rh, Scheduler: rh, Objective: obj, Runtime: rt,
		Pruner: NewMedianStop(0, 0),
	}); err == nil {
		t.Fatal("Scheduler+Pruner combination accepted")
	}
	if _, _, err := NewTrialScheduler("bogus", rungSpace(t), 9, 3, 1, 1, ""); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	s, sch, err := NewTrialScheduler("", rungSpace(t), 9, 3, 1, 1, "")
	if err != nil || s != nil || sch != nil {
		t.Fatalf("empty scheduler = (%v, %v, %v), want all nil", s, sch, err)
	}
	if _, _, err := NewTrialScheduler("hyperband", rungSpace(t), 9, 3, 1, 1, "bogus"); err == nil {
		t.Fatal("unknown rung mode accepted")
	}
	if _, _, err := NewTrialScheduler("", rungSpace(t), 9, 3, 1, 1, RungAsync); err == nil {
		t.Fatal("explicit rung mode without a scheduler accepted — would silently run without rungs")
	}
	if _, _, err := NewTrialScheduler("none", rungSpace(t), 9, 3, 1, 1, RungSync); err == nil {
		t.Fatal("explicit rung mode with scheduler none accepted")
	}
	if _, _, err := NewTrialScheduler("asha", rungSpace(t), 9, 3, 1, 1, RungSync); err == nil {
		t.Fatal("asha accepted a synchronous rung mode (its decisions are per-arrival)")
	}
	if hb, sched, err := NewTrialScheduler("hyperband", rungSpace(t), 9, 3, 1, 1, RungAsync); err != nil {
		t.Fatalf("async hyperband scheduler: %v", err)
	} else if rh, ok := hb.(*RungHyperband); !ok || !rh.AsyncRungs() || sched != hb.(TrialScheduler) {
		t.Fatalf("async hyperband = (%T async=%v, %T), want one async RungHyperband in both roles", hb, rh.AsyncRungs(), sched)
	}
}

// TestASHASchedulerPromotesAndHalts: per-arrival decisions — the sole
// occupant of a rung is promoted, a clearly losing later arrival halts.
func TestASHASchedulerPromotesAndHalts(t *testing.T) {
	a := NewASHAScheduler(3, 1, 27)
	a.Admit(1, 1, Config{})
	a.Admit(2, 1, Config{})
	a.Admit(3, 1, Config{})

	// First arrival at rung 0: alone, rank 1, keep 1 → promoted 1 → 3.
	d := a.Observe(1, 0, 0.9)
	if len(d) != 1 || d[0].Budget != 3 {
		t.Fatalf("first arrival decisions = %+v, want promotion to 3", d)
	}
	// Second arrival, worse: rank 2, keep 1 → still keep=len/eta=0→1 but
	// rank 2 > 1 → halted.
	d = a.Observe(2, 0, 0.1)
	if len(d) != 1 || d[0].Budget != 0 {
		t.Fatalf("losing arrival decisions = %+v, want halt", d)
	}
	// Third arrival, middling: rank 2 of 3, keep 1 → halted.
	d = a.Observe(3, 0, 0.5)
	if len(d) != 1 || d[0].Budget != 0 {
		t.Fatalf("third arrival decisions = %+v, want halt", d)
	}
	// The promoted trial reaches its new boundary: rung 1, alone → 3 → 9.
	d = a.Observe(1, 2, 0.95)
	if len(d) != 1 || d[0].Budget != 9 {
		t.Fatalf("rung-1 arrival decisions = %+v, want promotion to 9", d)
	}
	// Ceiling: at budget 27... promote caps at MaxB, and at the ceiling no
	// decision fires.
	d = a.Observe(1, 8, 0.99)
	if len(d) != 1 || d[0].Budget != 27 {
		t.Fatalf("rung-2 arrival decisions = %+v, want promotion to 27", d)
	}
	if d = a.Observe(1, 26, 1.0); d != nil {
		t.Fatalf("at the ceiling decisions = %+v, want none", d)
	}
	// Completed trials stop deciding.
	a.Complete(2, nil)
	if d = a.Observe(2, 0, 0.99); d != nil {
		t.Fatalf("completed trial decided %+v", d)
	}
}

// TestBudgetGateStopBeatsExtend pins the promote-vs-cancel race at the gate
// level: once stopped (cancel delivered), a later extension must not revive
// the trial.
func TestBudgetGateStopBeatsExtend(t *testing.T) {
	g := runtime.NewBudgetGate()
	g.SetLimit(2)
	if !g.Allow(1) {
		t.Fatal("under-limit Allow blocked")
	}
	g.Stop()
	g.Extend(9)
	if g.Allow(2) {
		t.Fatal("stopped gate allowed continuation after a late extend")
	}
	// And the reverse order: a paused trial extended then stopped unblocks
	// into a refusal.
	g2 := runtime.NewBudgetGate()
	g2.SetLimit(1)
	var wg sync.WaitGroup
	wg.Add(1)
	allowed := make(chan bool, 1)
	go func() {
		defer wg.Done()
		allowed <- g2.Allow(1)
	}()
	g2.Stop()
	wg.Wait()
	if <-allowed {
		t.Fatal("stopped gate released a paused trial as allowed")
	}
}

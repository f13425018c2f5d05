package hpo

import (
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/runtime"
	"repro/internal/store"
)

func TestTrialStateMachine(t *testing.T) {
	tr := newTrial(3, Config{"x": 1})
	if tr.State() != TrialPending || tr.State().Terminal() {
		t.Fatalf("new trial state = %v", tr.State())
	}
	tr.markRunning(17)
	if tr.State() != TrialRunning || tr.TaskID() != 17 {
		t.Fatalf("running trial = %v task %d", tr.State(), tr.TaskID())
	}
	if !tr.observe(0, 0.5) || !tr.observe(1, 0.6) {
		t.Fatal("running trial rejected reports")
	}
	if got := tr.Reports(); len(got) != 2 || got[1] != (EpochReport{Epoch: 1, Value: 0.6}) {
		t.Fatalf("reports = %v", got)
	}
	if !tr.requestPrune("losing") {
		t.Fatal("running trial not prunable")
	}
	if tr.requestPrune("again") || tr.requestCancel("late") {
		t.Fatal("terminal trial re-transitioned")
	}
	if tr.observe(2, 0.7) {
		t.Fatal("pruned trial accepted a late report")
	}
	res := TrialResult{ID: 3, Config: tr.Config, TrialMetrics: TrialMetrics{BestAcc: 0.6, Epochs: 2}}
	tr.finalize(&res)
	if !res.Pruned || res.PruneReason != "losing" || res.Succeeded() {
		t.Fatalf("finalized pruned result = %+v", res)
	}
	if tr.State() != TrialPruned || tr.Result() == nil || !tr.Result().Pruned {
		t.Fatalf("terminal state = %v result = %+v", tr.State(), tr.Result())
	}

	// Failure and cancellation renderings.
	f := newTrial(4, Config{})
	f.markRunning(18)
	fres := TrialResult{ID: 4, Err: "boom"}
	f.finalize(&fres)
	if f.State() != TrialFailed {
		t.Fatalf("failed state = %v", f.State())
	}
	c := newTrial(5, Config{})
	c.markRunning(19)
	if !c.requestCancel("operator") {
		t.Fatal("running trial not cancelable")
	}
	cres := TrialResult{ID: 5}
	c.finalize(&cres)
	if !cres.Canceled || c.State() != TrialCanceled {
		t.Fatalf("canceled rendering = %+v state %v", cres, c.State())
	}
}

func TestStudyRejectsStreamingOnSimBackend(t *testing.T) {
	// Sim cannot stream epoch reports; OnEpoch and a pruner must fail loudly
	// instead of silently no-opping (the old remote-backend behaviour).
	simRT, err := runtime.New(runtime.Options{
		Cluster: cluster.Local(4), Backend: runtime.Sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := &FuncObjective{ObjName: "x", Fn: nil}
	_, err = NewStudy(StudyOptions{
		Sampler: NewGridSearch(tinySpace(t)), Objective: obj, Runtime: simRT,
		OnEpoch: func(int, int, float64) {},
	})
	if err == nil {
		t.Fatal("OnEpoch accepted on a non-streaming backend")
	}
	_, err = NewStudy(StudyOptions{
		Sampler: NewGridSearch(tinySpace(t)), Objective: obj, Runtime: simRT,
		Scheduler: NewMedianStop(0, 0),
	})
	if err == nil {
		t.Fatal("pruner accepted on a non-streaming backend")
	}
}

// pacedObjective streams one report per epoch at a per-config pace: better
// configs train faster, so winners anchor each epoch's median before losers
// arrive — making pruning decisions deterministic under scheduling jitter.
// It honours Halt at epoch boundaries and counts every epoch executed.
func pacedObjective(epochs int, counter *atomic.Int64) *FuncObjective {
	return &FuncObjective{ObjName: "paced", Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
		final := ctx.Config.Float("acc", 0)
		pace := time.Duration(2+int((1-final)*6)) * time.Millisecond
		var m TrialMetrics
		for e := 0; e < epochs; e++ {
			if ctx.Halt != nil {
				if reason := ctx.Halt(); reason != "" {
					m.Stopped, m.StopReason = true, reason
					return m, nil
				}
			}
			v := final * float64(e+1) / float64(epochs)
			m.Epochs = e + 1
			m.ValAccHistory = append(m.ValAccHistory, v)
			m.FinalAcc, m.BestAcc = v, v
			if ctx.Report != nil {
				ctx.Report(e, v)
			}
			counter.Add(1)
			time.Sleep(pace)
		}
		return m, nil
	}}
}

// accSpace is a 4-config space whose "acc" value is each trial's final
// accuracy, giving a strict quality ordering.
func accSpace(t *testing.T) *Space {
	t.Helper()
	s, err := ParseSpaceJSON([]byte(`{"acc": [0.2, 0.4, 0.6, 0.8]}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStudyMedianPruningSavesEpochsLocally(t *testing.T) {
	const epochs = 12
	var executed atomic.Int64
	rt := newStudyRuntime(t, 4)
	st, err := NewStudy(StudyOptions{
		Sampler:   NewGridSearch(accSpace(t)),
		Objective: pacedObjective(epochs, &executed),
		Runtime:   rt,
		Scheduler: NewMedianStop(2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()

	if res.Pruned < 1 {
		t.Fatal("no trial was pruned")
	}
	if res.Best == nil || res.Best.Pruned || res.Best.Config.Float("acc", 0) != 0.8 {
		t.Fatalf("best = %+v, want the 0.8 config unpruned", res.Best)
	}
	baseline := int64(len(res.Trials) * epochs)
	if got := executed.Load(); got >= baseline {
		t.Fatalf("executed %d epochs, want < unpruned baseline %d", got, baseline)
	}
	for _, tr := range res.Trials {
		if tr.Pruned {
			if tr.PruneReason == "" || tr.Succeeded() {
				t.Fatalf("pruned trial malformed: %+v", tr)
			}
			if tr.Epochs >= epochs {
				t.Fatalf("pruned trial ran all %d epochs", tr.Epochs)
			}
		}
	}
	// The lifecycle view agrees with the results.
	pruned, reported := 0, 0
	for _, h := range st.Trials() {
		switch h.State() {
		case TrialPruned:
			pruned++
			if len(h.Reports()) == 0 {
				t.Fatal("pruned trial streamed no reports")
			}
		case TrialReported:
			reported++
		default:
			t.Fatalf("trial %d ended %v", h.ID, h.State())
		}
	}
	if pruned != res.Pruned || reported != len(res.Trials)-res.Pruned {
		t.Fatalf("handle states pruned=%d reported=%d vs results %d/%d",
			pruned, reported, res.Pruned, len(res.Trials))
	}
}

// TestRemotePruningStreamsEpochsAndSavesWork is the cross-layer acceptance
// test: a study on the TCP Remote backend with a pruner. Intermediate epoch
// metrics must stream from the workers to the master (and into the journal's
// event log), at least one trial must be pruned mid-training, and the total
// executed epochs must come out strictly lower than the unpruned baseline
// run on the same workers.
func TestRemotePruningStreamsEpochsAndSavesWork(t *testing.T) {
	const epochs = 12
	var executed atomic.Int64
	rt, err := runtime.New(runtime.Options{Backend: runtime.Remote})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	makeObjective := func() (Objective, error) { return pacedObjective(epochs, &executed), nil }
	// Real TCP workers (ServeWorkers listens on 127.0.0.1:0 and dials it).
	if err := ServeWorkers(rt, makeObjective, runtime.Constraint{Cores: 1}, 1, 0, 2, 2, func(err error) {
		t.Errorf("worker exited: %v", err)
	}); err != nil {
		t.Fatal(err)
	}
	obj, _ := makeObjective()

	// --- Unpruned baseline: every trial runs every epoch.
	baselineStudy, err := NewStudy(StudyOptions{
		Sampler: NewGridSearch(accSpace(t)), Objective: obj, Runtime: rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := baselineStudy.Run()
	if err != nil {
		t.Fatal(err)
	}
	baseline := executed.Load()
	if want := int64(len(baseRes.Trials) * epochs); baseline != want {
		t.Fatalf("baseline executed %d epochs, want %d", baseline, want)
	}

	// --- Pruned run, journaling trials, metrics and prune decisions.
	journal, err := store.OpenJournal(filepath.Join(t.TempDir(), "e2e.journal"), store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	if err := journal.CreateStudy(store.StudyMeta{ID: "e2e", Name: "e2e"}); err != nil {
		t.Fatal(err)
	}
	st, err := NewStudy(StudyOptions{
		Sampler:   NewGridSearch(accSpace(t)),
		Objective: obj,
		Runtime:   rt,
		Scheduler: NewMedianStop(2, 2),
		Recorder:  journal.Recorder("e2e", "remote-e2e"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	prunedEpochs := executed.Load() - baseline

	if res.Pruned < 1 {
		t.Fatal("no trial was pruned on the remote backend")
	}
	if prunedEpochs >= baseline {
		t.Fatalf("pruned run executed %d epochs, want strictly < baseline %d", prunedEpochs, baseline)
	}
	if res.Best == nil || res.Best.Pruned || res.Best.Config.Float("acc", 0) != 0.8 {
		t.Fatalf("best = %+v", res.Best)
	}

	// The journal saw the full lifecycle: streamed intermediate metrics,
	// at least one prune decision, and the trial records themselves.
	events, _ := journal.EventsSince("e2e", 0)
	metrics, prunes, trials, prunedTrials := 0, 0, 0, 0
	for _, ev := range events {
		switch ev.Type {
		case "metric":
			metrics++
			if ev.Metric == nil || ev.Metric.Epoch < 0 {
				t.Fatalf("malformed metric event %+v", ev)
			}
		case "prune":
			prunes++
			if ev.Prune == nil || ev.Prune.Reason == "" {
				t.Fatalf("malformed prune event %+v", ev)
			}
		case "trial":
			trials++
			if ev.Trial.Pruned {
				prunedTrials++
			}
		}
	}
	if metrics == 0 {
		t.Fatal("no intermediate metric events reached the journal from remote workers")
	}
	if prunes != res.Pruned || prunedTrials != res.Pruned {
		t.Fatalf("journal recorded %d prune events / %d pruned trials, study pruned %d",
			prunes, prunedTrials, res.Pruned)
	}
	if trials != len(res.Trials) {
		t.Fatalf("journal trials = %d, want %d", trials, len(res.Trials))
	}
}

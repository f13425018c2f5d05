package hpo

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/runtime"
)

func newStudyRuntime(t *testing.T, cores int) *runtime.Runtime {
	t.Helper()
	rt, err := runtime.New(runtime.Options{
		Cluster: cluster.Local(cores),
		Backend: runtime.Real,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// tinySpace is a 2×2 space for fast end-to-end studies.
func tinySpace(t *testing.T) *Space {
	t.Helper()
	s, err := ParseSpaceJSON([]byte(`{
	  "optimizer": ["Adam", "SGD"],
	  "num_epochs": [2, 3],
	  "batch_size": [16]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStudyGridEndToEnd(t *testing.T) {
	space := tinySpace(t)
	rt := newStudyRuntime(t, 4)
	obj := &MLObjective{Dataset: datasets.MNISTLike(200, 1), Hidden: []int{16}}
	st, err := NewStudy(StudyOptions{
		Sampler:    NewGridSearch(space),
		Objective:  obj,
		Runtime:    rt,
		Constraint: runtime.Constraint{Cores: 1},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()

	if len(res.Trials) != 4 {
		t.Fatalf("trials = %d, want 4 (2 optimizers × 2 epochs)", len(res.Trials))
	}
	if res.Best == nil || res.Best.BestAcc <= 0.2 {
		t.Fatalf("best = %+v", res.Best)
	}
	for _, tr := range res.Trials {
		if tr.Err != "" {
			t.Fatalf("trial %d failed: %s", tr.ID, tr.Err)
		}
		if len(tr.ValAccHistory) != tr.Epochs {
			t.Fatalf("history length %d != epochs %d", len(tr.ValAccHistory), tr.Epochs)
		}
	}
	if res.Algorithm != "grid" {
		t.Fatalf("algorithm = %q", res.Algorithm)
	}
}

func TestStudyRandomEndToEnd(t *testing.T) {
	space := tinySpace(t)
	rt := newStudyRuntime(t, 4)
	obj := &MLObjective{Dataset: datasets.MNISTLike(150, 2), Hidden: []int{8}}
	st, err := NewStudy(StudyOptions{
		Sampler:    NewRandomSearch(space, 3, 9),
		Objective:  obj,
		Runtime:    rt,
		Constraint: runtime.Constraint{Cores: 1},
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
}

func TestStudyTargetAccuracyStopsEarly(t *testing.T) {
	// Objective reports immediately-high accuracy → the study should cancel
	// the queue after the first completions.
	space := tinySpace(t)
	rt := newStudyRuntime(t, 1) // single core → serial execution
	calls := 0
	var mu sync.Mutex
	obj := &FuncObjective{
		ObjName: "instant",
		Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			if ctx.Report != nil {
				ctx.Report(0, 0.99)
			}
			time.Sleep(5 * time.Millisecond)
			return TrialMetrics{FinalAcc: 0.99, BestAcc: 0.99, Epochs: 1, ValAccHistory: []float64{0.99}}, nil
		},
	}
	st, err := NewStudy(StudyOptions{
		Sampler:        NewGridSearch(space),
		Objective:      obj,
		Runtime:        rt,
		Constraint:     runtime.Constraint{Cores: 1},
		TargetAccuracy: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if !res.Stopped {
		t.Fatal("study should report early stop")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls >= 4 {
		t.Fatalf("all %d trials ran despite target stop", calls)
	}
	canceled := 0
	for _, tr := range res.Trials {
		if tr.Canceled {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no trials marked canceled")
	}
	if res.BestAccuracy() < 0.9 {
		t.Fatalf("best accuracy %v below target", res.BestAccuracy())
	}
}

// TestStudyTargetStopReleasesGatedTrials: a report that reaches the target
// bypasses the scheduler, so no promotion or halt answers it. A gated trial
// whose objective ignores TargetAccuracy must still end: the study refuses
// its gate instead of leaving it paused at its next rung boundary forever.
func TestStudyTargetStopReleasesGatedTrials(t *testing.T) {
	space, err := ParseSpaceJSON([]byte(`{"num_epochs": [1, 3]}`))
	if err != nil {
		t.Fatal(err)
	}
	// No deferred Shutdown: it waits for every task, so on the failure
	// path it would hang as the study does.
	rt := newStudyRuntime(t, 2)
	obj := &FuncObjective{ObjName: "ignores-target", Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
		total := ctx.Config.Int("num_epochs", 1)
		if ctx.Proceed != nil && ctx.EpochCeiling > total {
			total = ctx.EpochCeiling
		}
		var m TrialMetrics
		for e := 0; e < total; e++ {
			v := 0.1 * float64(e+1)
			m.Epochs, m.FinalAcc, m.BestAcc = e+1, v, v
			ctx.Report(e, v)
			if e+1 < total && ctx.Proceed != nil && !ctx.Proceed(e+1) {
				m.Stopped = true
				break
			}
		}
		return m, nil
	}}
	st, err := NewStudy(StudyOptions{
		Sampler:        NewGridSearch(space),
		Scheduler:      NewASHAScheduler(3, 1, 9),
		Objective:      obj,
		Runtime:        rt,
		Constraint:     runtime.Constraint{Cores: 1},
		TargetAccuracy: 0.2,
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
		t.Fatal("study still running 20 s after its target was reached: a gated trial is paused for good")
	}
	rt.Shutdown()
	if res == nil || !res.Stopped {
		t.Fatalf("study should report its target stop: %+v", res)
	}
	if len(res.Trials) != 2 {
		t.Fatalf("trials = %d, want 2", len(res.Trials))
	}
	for _, tr := range res.Trials {
		if !tr.Succeeded() || tr.BestAcc < 0.2 {
			t.Errorf("trial %d: succeeded=%v best=%v, want a reported trial at or above the target", tr.ID, tr.Succeeded(), tr.BestAcc)
		}
	}
}

func TestStudyFailedTrialIsResultNotCrash(t *testing.T) {
	space := tinySpace(t)
	rt := newStudyRuntime(t, 2)
	obj := &FuncObjective{
		ObjName: "half-broken",
		Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
			if ctx.Config.Str("optimizer", "") == "SGD" {
				return TrialMetrics{}, errInjected
			}
			return TrialMetrics{FinalAcc: 0.5, BestAcc: 0.5, Epochs: 1, ValAccHistory: []float64{0.5}}, nil
		},
	}
	st, _ := NewStudy(StudyOptions{
		Sampler: NewGridSearch(space), Objective: obj, Runtime: rt,
		Constraint: runtime.Constraint{Cores: 1},
	})
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	failed, ok := 0, 0
	for _, tr := range res.Trials {
		if tr.Err != "" {
			failed++
		} else {
			ok++
		}
	}
	if failed != 2 || ok != 2 {
		t.Fatalf("failed=%d ok=%d, want 2/2", failed, ok)
	}
	if res.Best == nil || res.Best.Err != "" {
		t.Fatal("best must be a successful trial")
	}
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected objective failure" }

func TestStudyAdaptiveSamplerBatches(t *testing.T) {
	// TPE with budget 6 and batch size 2 must complete exactly 6 trials.
	space := tinySpace(t)
	rt := newStudyRuntime(t, 2)
	obj := &FuncObjective{
		ObjName: "fast",
		Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
			acc := 0.5 + 0.1*float64(ctx.Config.Int("num_epochs", 0)%5)
			return TrialMetrics{FinalAcc: acc, BestAcc: acc, Epochs: 1, ValAccHistory: []float64{acc}}, nil
		},
	}
	st, _ := NewStudy(StudyOptions{
		Sampler: NewTPE(space, 6, 3), Objective: obj, Runtime: rt,
		Constraint: runtime.Constraint{Cores: 1}, BatchSize: 2,
	})
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if len(res.Trials) != 6 {
		t.Fatalf("trials = %d, want 6", len(res.Trials))
	}
}

func TestStudyOnEpochStreams(t *testing.T) {
	space := tinySpace(t)
	rt := newStudyRuntime(t, 2)
	var mu sync.Mutex
	epochs := 0
	obj := &MLObjective{Dataset: datasets.MNISTLike(100, 3), Hidden: []int{8}}
	st, _ := NewStudy(StudyOptions{
		Sampler: NewRandomSearch(space, 2, 4), Objective: obj, Runtime: rt,
		Constraint: runtime.Constraint{Cores: 1},
		OnEpoch: func(trial, epoch int, acc float64) {
			mu.Lock()
			epochs++
			mu.Unlock()
		},
	})
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	mu.Lock()
	defer mu.Unlock()
	if epochs == 0 {
		t.Fatal("no epoch reports streamed")
	}
}

func TestStudyValidation(t *testing.T) {
	rt := newStudyRuntime(t, 1)
	defer rt.Shutdown()
	obj := &FuncObjective{ObjName: "x", Fn: nil}
	if _, err := NewStudy(StudyOptions{Objective: obj, Runtime: rt}); err == nil {
		t.Fatal("expected error for missing sampler")
	}
	if _, err := NewStudy(StudyOptions{Sampler: NewGridSearch(tinySpace(t)), Runtime: rt}); err == nil {
		t.Fatal("expected error for missing objective")
	}
	if _, err := NewStudy(StudyOptions{Sampler: NewGridSearch(tinySpace(t)), Objective: obj}); err == nil {
		t.Fatal("expected error for missing runtime")
	}
}

func TestRenderCurvesAndTable(t *testing.T) {
	trials := []TrialResult{
		{ID: 0, Config: Config{"optimizer": "Adam"}, TrialMetrics: TrialMetrics{
			BestAcc: 0.95, FinalAcc: 0.95, Epochs: 3, ValAccHistory: []float64{0.5, 0.8, 0.95}}},
		{ID: 1, Config: Config{"optimizer": "SGD"}, TrialMetrics: TrialMetrics{
			BestAcc: 0.7, FinalAcc: 0.6, Epochs: 3, ValAccHistory: []float64{0.4, 0.7, 0.6}}},
		{ID: 2, Config: Config{"optimizer": "RMSprop"}, Err: "nan loss"},
	}
	curves := RenderCurves(trials, 40, 10)
	if !strings.Contains(curves, "val_acc") || !strings.Contains(curves, "epoch 1 .. 3") {
		t.Fatalf("curves malformed:\n%s", curves)
	}
	if !strings.Contains(curves, "0") || !strings.Contains(curves, "1") {
		t.Fatalf("trial digits missing:\n%s", curves)
	}
	table := RenderTable(trials)
	if !strings.Contains(table, "optimizer=Adam") {
		t.Fatalf("table missing config:\n%s", table)
	}
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 4 {
		t.Fatalf("table rows = %d", len(lines))
	}
	// Best trial ranks first; failed trial ranks last.
	if !strings.Contains(lines[1], "0.9500") || !strings.Contains(lines[3], "failed") {
		t.Fatalf("ranking wrong:\n%s", table)
	}
	if out := RenderCurves(nil, 10, 5); !strings.Contains(out, "no trial histories") {
		t.Fatal("empty curves rendering")
	}
}

func TestStudyGridMatchesPaperTaskCount(t *testing.T) {
	// The full paper space on the runtime: 27 experiment tasks submitted.
	space := paperSpace(t)
	rt := newStudyRuntime(t, 8)
	obj := &FuncObjective{
		ObjName: "count",
		Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
			return TrialMetrics{FinalAcc: 0.9, BestAcc: 0.9, Epochs: 1, ValAccHistory: []float64{0.9}}, nil
		},
	}
	st, _ := NewStudy(StudyOptions{
		Sampler: NewGridSearch(space), Objective: obj, Runtime: rt,
		Constraint: runtime.Constraint{Cores: 1},
	})
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.Stats()
	rt.Shutdown()
	if len(res.Trials) != 27 || stats.Completed != 27 {
		t.Fatalf("trials=%d completed=%d, want 27 (paper §5)", len(res.Trials), stats.Completed)
	}
}

func TestMLObjectiveCNNModel(t *testing.T) {
	obj := &MLObjective{Dataset: datasets.MNISTLike(120, 9), Hidden: []int{8}}
	m, err := obj.Run(ObjectiveContext{
		Config: Config{"model": "cnn", "filters": 2, "num_epochs": 2, "batch_size": 24, "optimizer": "Adam"},
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Epochs != 2 || m.FinalAcc <= 0.1 {
		t.Fatalf("CNN objective metrics = %+v", m)
	}
	if _, err := obj.Run(ObjectiveContext{
		Config: Config{"model": "transformer", "num_epochs": 1, "batch_size": 8},
		Seed:   9,
	}); err == nil {
		t.Fatal("expected error for unknown model kind")
	}
}

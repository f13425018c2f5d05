package hpo

import (
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/datasets"
	"repro/internal/runtime"
	"repro/internal/store"
)

// startStudyWorkers attaches n in-process workers that execute the
// distributed experiment task against their own objective copy.
func startStudyWorkers(t *testing.T, rt *runtime.Runtime, n int, def runtime.TaskDef) {
	t.Helper()
	RegisterWireTypes()
	for i := 0; i < n; i++ {
		master, side := comm.NewMemPair(64)
		w := runtime.NewWorker(2, 0)
		if err := w.Register(def); err != nil {
			t.Fatal(err)
		}
		go func() {
			if err := w.Serve(side); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
		if _, err := rt.AttachWorker(master); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistributedStudyOverRemoteBackend(t *testing.T) {
	rt, err := runtime.New(runtime.Options{Backend: runtime.Remote})
	if err != nil {
		t.Fatal(err)
	}
	// Both master and workers build the experiment task from the same
	// objective; the master's copy is registered only for metadata.
	constraint := runtime.Constraint{Cores: 1}
	mkObjective := func() Objective {
		return &MLObjective{Dataset: datasets.MNISTLike(200, 5), Hidden: []int{8}}
	}
	def := ExperimentTaskDef(mkObjective(), constraint, 11, 0)
	if err := rt.Register(def); err != nil {
		t.Fatal(err)
	}
	startStudyWorkers(t, rt, 2, ExperimentTaskDef(mkObjective(), constraint, 11, 0))

	space := tinySpace(t)
	st, err := NewStudy(StudyOptions{
		Sampler:    NewGridSearch(space),
		Objective:  mkObjective(), // unused remotely, kept for validation
		Runtime:    rt,
		Constraint: constraint,
		Seed:       11,
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
		t.Fatalf("trials = %d", len(res.Trials))
	}
	for _, tr := range res.Trials {
		if tr.Err != "" {
			t.Fatalf("trial %d failed remotely: %s", tr.ID, tr.Err)
		}
		if tr.BestAcc <= 0.2 {
			t.Fatalf("trial %d accuracy %v — result did not survive the wire", tr.ID, tr.BestAcc)
		}
		if len(tr.ValAccHistory) == 0 {
			t.Fatalf("trial %d history lost in gob transfer", tr.ID)
		}
	}
}

func TestDistributedStudyTargetStopsFromResults(t *testing.T) {
	// Without epoch streaming, the study must still stop from returned
	// results reaching the target.
	rt, err := runtime.New(runtime.Options{Backend: runtime.Remote})
	if err != nil {
		t.Fatal(err)
	}
	constraint := runtime.Constraint{Cores: 1}
	obj := &FuncObjective{
		ObjName: "easy",
		Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
			return TrialMetrics{BestAcc: 0.99, FinalAcc: 0.99, Epochs: 1, ValAccHistory: []float64{0.99}}, nil
		},
	}
	def := ExperimentTaskDef(obj, constraint, 1, 0.9)
	if err := rt.Register(def); err != nil {
		t.Fatal(err)
	}
	startStudyWorkers(t, rt, 1, def)

	st, err := NewStudy(StudyOptions{
		Sampler:        NewGridSearch(tinySpace(t)),
		Objective:      obj,
		Runtime:        rt,
		Constraint:     constraint,
		TargetAccuracy: 0.9,
		BatchSize:      1, // round per trial so the stop check engages
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
		t.Fatal("study should stop after the first over-target result")
	}
	if len(res.Trials) >= 4 {
		t.Fatalf("ran %d trials despite early stop", len(res.Trials))
	}
}

func TestStudyVisualisePipeline(t *testing.T) {
	space := tinySpace(t)
	rt := newStudyRuntime(t, 4)
	obj := &FuncObjective{
		ObjName: "fast",
		Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
			acc := 0.5 + 0.01*float64(ctx.Config.Int("num_epochs", 0))
			return TrialMetrics{BestAcc: acc, FinalAcc: acc, Epochs: 1, ValAccHistory: []float64{acc}}, nil
		},
	}
	st, err := NewStudy(StudyOptions{
		Sampler: NewGridSearch(space), Objective: obj, Runtime: rt,
		Constraint: runtime.Constraint{Cores: 1},
		Visualise:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if !strings.Contains(res.Plot, "=== study plot ===") {
		t.Fatalf("plot missing header:\n%s", res.Plot)
	}
	// One line per trial in the plot body.
	lines := strings.Split(strings.TrimSpace(res.Plot), "\n")
	if len(lines) != 5 { // header + 4 trials
		t.Fatalf("plot lines = %d:\n%s", len(lines), res.Plot)
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, "best 0.5") {
			t.Fatalf("plot line malformed: %q", l)
		}
	}
}

// openTestRecorder opens the journal at path for one study run, creating
// study id on first use; the caller closes the journal after the run.
func openTestRecorder(t *testing.T, path, id string) (*store.Journal, store.Recorder) {
	t.Helper()
	j, err := store.OpenJournal(path, store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.GetStudy(id); err != nil {
		if err := j.CreateStudy(store.StudyMeta{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	return j, j.Recorder(id, "")
}

func TestStudyCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.journal")
	space := tinySpace(t)

	var calls atomic.Int32
	obj := &FuncObjective{
		ObjName: "count",
		Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
			calls.Add(1)
			acc := 0.4 + 0.1*float64(ctx.Config.Int("num_epochs", 0)%4)
			return TrialMetrics{BestAcc: acc, FinalAcc: acc, Epochs: 2, ValAccHistory: []float64{acc / 2, acc}}, nil
		},
	}
	runStudy := func() *StudyResult {
		j, rec := openTestRecorder(t, path, "resume")
		defer j.Close()
		rt := newStudyRuntime(t, 2)
		defer rt.Shutdown()
		st, err := NewStudy(StudyOptions{
			Sampler: NewGridSearch(space), Objective: obj, Runtime: rt,
			Constraint: runtime.Constraint{Cores: 1},
			Recorder:   rec,
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

	first := runStudy()
	if first.Resumed != 0 || calls.Load() != 4 {
		t.Fatalf("first run: resumed=%d calls=%d", first.Resumed, calls.Load())
	}

	second := runStudy()
	if second.Resumed != 4 {
		t.Fatalf("second run resumed %d/4 trials", second.Resumed)
	}
	if calls.Load() != 4 {
		t.Fatalf("objective re-ran on resume: %d calls", calls.Load())
	}
	if len(second.Trials) != 4 || second.Best == nil {
		t.Fatalf("resumed result incomplete: %d trials", len(second.Trials))
	}
	// Accuracy curves survive the journal round trip.
	for _, tr := range second.Trials {
		if len(tr.ValAccHistory) != 2 {
			t.Fatalf("trial %d history = %v", tr.ID, tr.ValAccHistory)
		}
	}
}

func TestCheckpointSkipsFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.journal")
	space := tinySpace(t)

	var attempt atomic.Int32
	obj := &FuncObjective{
		ObjName: "flaky",
		Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
			n := attempt.Add(1)
			if ctx.Config.Str("optimizer", "") == "SGD" && n <= 4 {
				return TrialMetrics{}, errInjected
			}
			return TrialMetrics{BestAcc: 0.8, FinalAcc: 0.8, Epochs: 1, ValAccHistory: []float64{0.8}}, nil
		},
	}
	runStudy := func() *StudyResult {
		j, rec := openTestRecorder(t, path, "flaky")
		defer j.Close()
		rt := newStudyRuntime(t, 1)
		defer rt.Shutdown()
		st, _ := NewStudy(StudyOptions{
			Sampler: NewGridSearch(space), Objective: obj, Runtime: rt,
			Constraint: runtime.Constraint{Cores: 1}, Recorder: rec,
		})
		res, err := st.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := runStudy()
	failed := 0
	for _, tr := range first.Trials {
		if tr.Err != "" {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("first run failures = %d, want 2", failed)
	}
	// Failed trials are rerun on resume; successful ones are not.
	second := runStudy()
	if second.Resumed != 2 {
		t.Fatalf("resumed = %d, want only the 2 successes", second.Resumed)
	}
	for _, tr := range second.Trials {
		if tr.Err != "" {
			t.Fatalf("failure persisted after resume: %+v", tr)
		}
	}
}

// failingRecorder is a Recorder whose Load always fails, standing in for
// an unreadable persisted study.
type failingRecorder struct{ err error }

func (r failingRecorder) Load() ([]store.Trial, error) { return nil, r.err }
func (failingRecorder) Record([]store.Trial) error     { return nil }

func TestCheckpointRejectsGarbage(t *testing.T) {
	rt := newStudyRuntime(t, 1)
	defer rt.Shutdown()
	obj := &FuncObjective{ObjName: "x", Fn: func(ObjectiveContext) (TrialMetrics, error) {
		return TrialMetrics{}, nil
	}}
	loadErr := errors.New("unreadable study")
	st, _ := NewStudy(StudyOptions{
		Sampler: NewGridSearch(tinySpace(t)), Objective: obj, Runtime: rt,
		Constraint: runtime.Constraint{Cores: 1}, Recorder: failingRecorder{loadErr},
	})
	if _, err := st.Run(); !errors.Is(err, loadErr) {
		t.Fatalf("Run = %v, want the recorder's Load error", err)
	}
}

func TestCheckpointVersionCheck(t *testing.T) {
	if _, err := store.DecodeCheckpoint([]byte(`{"version": 99, "trials": []}`)); err == nil {
		t.Fatal("expected version error")
	}
}

package hpo

import (
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/store"
)

// slowMemo is a Recorder whose cross-study memo lookup always misses after
// a 30 ms pause, so admitConfigs is still submitting the batch when the
// first trial reports.
type slowMemo struct{}

func (slowMemo) Load() ([]store.Trial, error) { return nil, nil }
func (slowMemo) Record([]store.Trial) error   { return nil }
func (slowMemo) Lookup(string) (store.Trial, bool) {
	time.Sleep(30 * time.Millisecond)
	return store.Trial{}, false
}

// stopProbe counts objective runs and how many of them began after the
// first epoch report, which is the moment the study is told to stop. On
// one core a trial cannot start while trial 0 still runs, so with submission
// halted at the stop no run may begin after it.
type stopProbe struct {
	mu       sync.Mutex
	calls    int
	reported bool
	late     int
}

func (p *stopProbe) objective(acc float64) *FuncObjective {
	return &FuncObjective{
		ObjName: "instant",
		Fn: func(ctx ObjectiveContext) (TrialMetrics, error) {
			p.mu.Lock()
			p.calls++
			if p.reported {
				p.late++
			}
			p.mu.Unlock()
			if ctx.Report != nil {
				ctx.Report(0, acc)
			}
			time.Sleep(5 * time.Millisecond)
			return TrialMetrics{FinalAcc: acc, BestAcc: acc, Epochs: 1, ValAccHistory: []float64{acc}}, nil
		},
	}
}

func (p *stopProbe) markReported() {
	p.mu.Lock()
	p.reported = true
	p.mu.Unlock()
}

// check also requires every config the stop kept from running to be
// reported as a canceled trial, as a pending task canceled by the stop is.
func (p *stopProbe) check(t *testing.T, res *StudyResult) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.late > 0 || p.calls != 1 {
		t.Fatalf("%d trials ran, %d of them started after the stop; want 1 and 0", p.calls, p.late)
	}
	if len(res.Trials) != 4 {
		t.Fatalf("%d trials reported, want all 4 configs", len(res.Trials))
	}
	for _, tr := range res.Trials[1:] {
		if !tr.Canceled {
			t.Fatalf("trial %d never ran but is not canceled: %+v", tr.ID, tr)
		}
	}
}

// TestStudyTargetStopHaltsSubmission: a target reached by trial 0 while the
// rest of its batch is still being admitted stops the batch. No later
// config is submitted, so no trial trains after the study has stopped.
func TestStudyTargetStopHaltsSubmission(t *testing.T) {
	rt := newStudyRuntime(t, 1)
	defer rt.Shutdown()
	p := &stopProbe{}
	st, err := NewStudy(StudyOptions{
		Sampler:        NewGridSearch(tinySpace(t)),
		Objective:      p.objective(0.99),
		Runtime:        rt,
		Constraint:     runtime.Constraint{Cores: 1},
		BatchSize:      4,
		TargetAccuracy: 0.9,
		Recorder:       slowMemo{},
		OnEpoch:        func(int, int, float64) { p.markReported() },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("study should report the target stop")
	}
	p.check(t, res)
}

// TestStudyOperatorStopHaltsSubmission: Study.Stop called while the batch is
// still being admitted stops the batch, the operator's half of the same
// contract.
func TestStudyOperatorStopHaltsSubmission(t *testing.T) {
	rt := newStudyRuntime(t, 1)
	defer rt.Shutdown()
	p := &stopProbe{}
	var st *Study
	var once sync.Once
	st, err := NewStudy(StudyOptions{
		Sampler:    NewGridSearch(tinySpace(t)),
		Objective:  p.objective(0.5),
		Runtime:    rt,
		Constraint: runtime.Constraint{Cores: 1},
		BatchSize:  4,
		Recorder:   slowMemo{},
		OnEpoch: func(trial, _ int, _ float64) {
			if trial == 0 {
				once.Do(func() {
					p.markReported()
					st.Stop("operator")
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("study should report the operator cancel")
	}
	p.check(t, res)
}

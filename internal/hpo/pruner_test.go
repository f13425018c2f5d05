package hpo

import (
	"fmt"
	"testing"
)

func TestNewPrunerByName(t *testing.T) {
	if p, err := NewPruner("", 0, 0); err != nil || p != nil {
		t.Fatalf("empty name = %v, %v; want nil pruner", p, err)
	}
	if p, err := NewPruner("none", 0, 0); err != nil || p != nil {
		t.Fatalf("none = %v, %v; want nil pruner", p, err)
	}
	if p, err := NewPruner("median", 0, 0); err != nil || p == nil || p.Name() != "median" {
		t.Fatalf("median = %v, %v", p, err)
	}
	if p, err := NewPruner("asha", 0, 0); err != nil || p == nil || p.Name() != "asha" {
		t.Fatalf("asha = %v, %v", p, err)
	}
	if _, err := NewPruner("bogus", 0, 0); err == nil {
		t.Fatal("unknown pruner accepted")
	}
}

// halts reports whether a pruner's Observe returned its halt verdict.
func halts(ds []SchedDecision) bool { return len(ds) > 0 }

// TestPrunerVerdictIsAHalt: a pruner is a TrialScheduler that never
// promotes — no promotion ceiling, and its one verdict is a budget-0 halt
// at the reporting epoch carrying the journaled pruner reason.
func TestPrunerVerdictIsAHalt(t *testing.T) {
	for _, name := range []string{"median", "asha"} {
		p, err := NewPruner(name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.MaxBudget() != 0 {
			t.Fatalf("%s: MaxBudget = %d, want 0", name, p.MaxBudget())
		}
		vals := []float64{0.9, 0.8, 0.7, 0.1}
		var got []SchedDecision
		for id, v := range vals {
			p.Admit(id, 3, nil)
			for e := 0; e < 2 && len(got) == 0; e++ {
				got = p.Observe(id, e, v*float64(e+1))
			}
		}
		if len(got) != 1 {
			t.Fatalf("%s: decisions = %v, want one halt", name, got)
		}
		d := got[0]
		if d.Budget != 0 || d.Reason != ReasonPrunerLosing(name, d.Epoch, vals[d.TrialID]*float64(d.Epoch+1)) {
			t.Fatalf("%s: decision = %+v, want a budget-0 halt with the pruner reason", name, d)
		}
		if p.Complete(d.TrialID, nil) != nil {
			t.Fatalf("%s: Complete returned decisions", name)
		}
	}
}

func TestMedianStopPrunesBelowMedian(t *testing.T) {
	m := NewMedianStop(1, 2)
	// Epoch 0 is warmup: nobody is pruned regardless of values.
	for id, v := range []float64{0.9, 0.8, 0.1} {
		if halts(m.Observe(id, 0, v)) {
			t.Fatalf("trial %d pruned during warmup", id)
		}
	}
	// Epoch 1: the two good trials report first, then the laggard.
	if halts(m.Observe(0, 1, 0.92)) {
		t.Fatal("trial 0 pruned with no peers at epoch 1")
	}
	if halts(m.Observe(1, 1, 0.85)) {
		t.Fatal("trial 1 pruned with one peer (< MinTrials)")
	}
	if !halts(m.Observe(2, 1, 0.12)) {
		t.Fatal("losing trial 2 not pruned below the median")
	}
	// A trial at the median survives (strictly-below rule).
	if halts(m.Observe(3, 1, 0.885)) {
		t.Fatal("median-straddling trial pruned")
	}
}

func TestMedianStopMedianHelper(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
}

func TestASHARungRanking(t *testing.T) {
	a := NewASHA(2, 1) // rungs at 1, 2, 4, 8... epochs
	// First arrival at rung 0 always survives (keep >= 1).
	if halts(a.Observe(0, 0, 0.1)) {
		t.Fatal("first arrival pruned")
	}
	// A better later arrival survives; the earlier one is now bottom, but
	// decisions are made per arrival — only the arriving trial is judged.
	if halts(a.Observe(1, 0, 0.5)) {
		t.Fatal("rank-1 arrival pruned")
	}
	// n=3, keep=1: arriving mid-pack ranks 2 → pruned.
	if !halts(a.Observe(2, 0, 0.3)) {
		t.Fatal("rank-2 arrival not pruned at rung 0")
	}
	// Non-rung epochs never prune (resource 3 is not a power-of-2 rung).
	if halts(a.Observe(1, 2, 0.01)) {
		t.Fatal("non-rung epoch pruned")
	}
	// Rung 1 (resource 2): fresh ranking.
	if halts(a.Observe(1, 1, 0.6)) {
		t.Fatal("first arrival at rung 1 pruned")
	}
	if !halts(a.Observe(0, 1, 0.2)) {
		t.Fatal("bottom arrival at rung 1 (n=2, keep=1) not pruned")
	}
}

func TestASHARungIndex(t *testing.T) {
	a := NewASHA(3, 1)
	want := map[int]int{1: 0, 3: 1, 9: 2, 27: 3}
	for res, k := range want {
		if got := a.rungIndex(res); got != k {
			t.Fatalf("rungIndex(%d) = %d, want %d", res, got, k)
		}
	}
	for _, res := range []int{0, 2, 4, 8, 10} {
		if got := a.rungIndex(res); got != -1 {
			t.Fatalf("rungIndex(%d) = %d, want -1", res, got)
		}
	}
}

// TestHyperbandRungMath pins the bracket arithmetic for R=9, eta=3 (Li et
// al.) on the sync rung scheduler: three brackets with initial sizes 9, 5,
// 3; rung populations per budget must come out exactly 9@1, (3+5)@3 and
// (1+1+3)@9.
func TestHyperbandRungMath(t *testing.T) {
	h := NewRungHyperband(rungSpace(t), 9, 3, 7)

	if len(h.brackets) != 3 {
		t.Fatalf("brackets = %d, want 3 (sMax=2)", len(h.brackets))
	}
	wantInit := []int{9, 5, 3}
	wantBudget := []int{1, 3, 9}
	for i, b := range h.brackets {
		if len(b.members) != wantInit[i] {
			t.Fatalf("bracket %d starts with %d configs, want %d", i, len(b.members), wantInit[i])
		}
		if b.budgets[0] != wantBudget[i] {
			t.Fatalf("bracket %d first budget = %d, want %d", i, b.budgets[0], wantBudget[i])
		}
	}

	reached, _, _ := driveSyncRungs(t, h)
	totalByBudget := map[int]int{}
	var rungSizes []int
	for _, b := range h.brackets {
		for _, budget := range b.budgets {
			n := 0
			for _, m := range b.members {
				n += reached[fmt.Sprintf("%v@%d", m.cfg["acc"], budget)]
			}
			totalByBudget[budget] += n
			rungSizes = append(rungSizes, n)
		}
	}

	want := map[int]int{1: 9, 3: 8, 9: 5}
	for budget, n := range want {
		if totalByBudget[budget] != n {
			t.Fatalf("trials at budget %d = %d, want %d (all: %v)", budget, totalByBudget[budget], n, totalByBudget)
		}
	}
	// Promotion counts: bracket 0 runs rungs of 9 → 3 → 1, bracket 1 runs
	// 5 → 1, bracket 2 runs 3.
	if fmt.Sprint(rungSizes) != "[9 3 1 5 1 3]" {
		t.Fatalf("rung sizes = %v, want [9 3 1 5 1 3]", rungSizes)
	}
}

// TestSamplersIgnorePrunedTrials: model-based samplers must not feed pruned
// partial results into their surrogates.
func TestSamplersIgnorePrunedTrials(t *testing.T) {
	s, _ := ParseSpaceJSON([]byte(`{"x": {"type": "float", "min": 0, "max": 1}}`))
	tpe := NewTPE(s, 10, 1)
	bayes := NewBayesOpt(s, 10, 1)
	pruned := TrialResult{ID: 0, Config: Config{"x": 0.5}, Pruned: true,
		TrialMetrics: TrialMetrics{BestAcc: 0.99}}
	canceled := TrialResult{ID: 1, Config: Config{"x": 0.6}, Canceled: true,
		TrialMetrics: TrialMetrics{BestAcc: 0.98}}
	tpe.Tell([]TrialResult{pruned, canceled})
	bayes.Tell([]TrialResult{pruned, canceled})
	if len(tpe.xs) != 0 || len(tpe.ys) != 0 {
		t.Fatalf("TPE absorbed pruned/canceled trials: %d observations", len(tpe.xs))
	}
	if len(bayes.xs) != 0 || len(bayes.ys) != 0 {
		t.Fatalf("BayesOpt absorbed pruned/canceled trials: %d observations", len(bayes.xs))
	}
}

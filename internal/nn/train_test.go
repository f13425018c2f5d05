package nn

import (
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/tensor"
)

func trainValSets(t *testing.T, name string, n int) (trainX *tensor.Tensor, trainY []int, valX *tensor.Tensor, valY []int, features int) {
	t.Helper()
	ds, err := datasets.ByName(name, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	tr, va := ds.Split(0.8, rng)
	return tr.X, tr.Y, va.X, va.Y, ds.Features()
}

func TestFitLearnsMNISTLike(t *testing.T) {
	trX, trY, vaX, vaY, features := trainValSets(t, "mnist", 600)
	r := tensor.NewRNG(1)
	m := NewMLP(r, features, []int{32}, 10)
	opt, _ := NewOptimizer("Adam", 0)
	h, err := m.Fit(trX, trY, vaX, vaY, FitConfig{
		Epochs: 5, BatchSize: 32, Optimizer: opt, Shuffle: true, RNG: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Epochs != 5 {
		t.Fatalf("epochs = %d", h.Epochs)
	}
	if h.Final() < 0.85 {
		t.Fatalf("val accuracy after 5 epochs = %v, want > 0.85 (the Figure-7 '>90%% quickly' property)", h.Final())
	}
	if h.TrainLoss[len(h.TrainLoss)-1] >= h.TrainLoss[0] {
		t.Fatalf("training loss did not decrease: %v", h.TrainLoss)
	}
}

func TestFitCIFARLikeHarder(t *testing.T) {
	trX, trY, vaX, vaY, features := trainValSets(t, "cifar10", 400)
	r := tensor.NewRNG(2)
	m := NewMLP(r, features, []int{32}, 10)
	opt, _ := NewOptimizer("Adam", 0)
	h, err := m.Fit(trX, trY, vaX, vaY, FitConfig{
		Epochs: 3, BatchSize: 32, Optimizer: opt, Shuffle: true, RNG: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	// CIFAR-like should beat chance but be clearly harder than MNIST-like.
	if h.Final() < 0.15 {
		t.Fatalf("val accuracy = %v, want better than chance", h.Final())
	}
}

func TestFitValidatesConfig(t *testing.T) {
	r := tensor.NewRNG(3)
	m := NewMLP(r, 4, nil, 2)
	x := tensor.Randn(r, 8, 4)
	y := []int{0, 1, 0, 1, 0, 1, 0, 1}
	opt, _ := NewOptimizer("SGD", 0)

	cases := []FitConfig{
		{Epochs: 0, BatchSize: 4, Optimizer: opt},
		{Epochs: 1, BatchSize: 0, Optimizer: opt},
		{Epochs: 1, BatchSize: 4},
		{Epochs: 1, BatchSize: 4, Optimizer: opt, Shuffle: true}, // no RNG
	}
	for i, cfg := range cases {
		if _, err := m.Fit(x, y, x, y, cfg); err == nil {
			t.Fatalf("case %d: expected config error", i)
		}
	}
	if _, err := m.Fit(x, []int{0}, x, y, FitConfig{Epochs: 1, BatchSize: 4, Optimizer: opt}); err == nil {
		t.Fatal("expected label-count error")
	}
}

func TestFitHistoryLengths(t *testing.T) {
	trX, trY, vaX, vaY, features := trainValSets(t, "mnist", 200)
	r := tensor.NewRNG(4)
	m := NewMLP(r, features, []int{8}, 10)
	opt, _ := NewOptimizer("RMSprop", 0)
	h, err := m.Fit(trX, trY, vaX, vaY, FitConfig{Epochs: 3, BatchSize: 16, Optimizer: opt})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range [][]float64{h.TrainLoss, h.TrainAcc, h.ValLoss, h.ValAcc} {
		if len(s) != 3 {
			t.Fatalf("history series length %d, want 3", len(s))
		}
	}
}

func TestTargetAccuracyStopsEarly(t *testing.T) {
	trX, trY, vaX, vaY, features := trainValSets(t, "mnist", 600)
	r := tensor.NewRNG(5)
	m := NewMLP(r, features, []int{32}, 10)
	opt, _ := NewOptimizer("Adam", 0)
	h, err := m.Fit(trX, trY, vaX, vaY, FitConfig{
		Epochs: 50, BatchSize: 32, Optimizer: opt, Shuffle: true, RNG: r,
		Callbacks: []Callback{&TargetAccuracy{Target: 0.80}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Stopped {
		t.Fatal("expected early stop at 80% accuracy")
	}
	if h.Epochs >= 50 {
		t.Fatalf("ran all %d epochs despite target stop", h.Epochs)
	}
	if !strings.Contains(h.StopReason, "target accuracy") {
		t.Fatalf("StopReason = %q", h.StopReason)
	}
}

func TestEpochReporterStreams(t *testing.T) {
	var seen []int
	rep := &EpochReporter{Report: func(epoch int, vl, va float64) { seen = append(seen, epoch) }}
	trX, trY, vaX, vaY, features := trainValSets(t, "mnist", 100)
	r := tensor.NewRNG(6)
	m := NewMLP(r, features, []int{4}, 10)
	opt, _ := NewOptimizer("SGD", 0)
	if _, err := m.Fit(trX, trY, vaX, vaY, FitConfig{Epochs: 3, BatchSize: 25, Optimizer: opt, Callbacks: []Callback{rep}}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[2] != 2 {
		t.Fatalf("reporter saw epochs %v", seen)
	}
}

func TestHistoryHelpers(t *testing.T) {
	h := &History{ValAcc: []float64{0.3, 0.9, 0.7}}
	if h.Final() != 0.7 {
		t.Fatalf("Final = %v", h.Final())
	}
	if h.BestValAcc() != 0.9 {
		t.Fatalf("BestValAcc = %v", h.BestValAcc())
	}
	empty := &History{}
	if empty.Final() != 0 || empty.BestValAcc() != 0 {
		t.Fatal("empty history helpers should return 0")
	}
}

// Determinism: same seeds → identical training histories.
func TestFitDeterministic(t *testing.T) {
	run := func() *History {
		ds := datasets.MNISTLike(200, 9)
		rng := tensor.NewRNG(10)
		tr, va := ds.Split(0.8, rng)
		r := tensor.NewRNG(11)
		m := NewMLP(r, ds.Features(), []int{8}, 10)
		opt, _ := NewOptimizer("Adam", 0)
		h, err := m.Fit(tr.X, tr.Y, va.X, va.Y, FitConfig{Epochs: 2, BatchSize: 16, Optimizer: opt, Shuffle: true, RNG: r})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := run(), run()
	for i := range a.ValAcc {
		if a.ValAcc[i] != b.ValAcc[i] {
			t.Fatalf("non-deterministic training: %v vs %v", a.ValAcc, b.ValAcc)
		}
	}
}

func TestParallelTrainingMatchesSerial(t *testing.T) {
	ds := datasets.MNISTLike(200, 12)
	rng := tensor.NewRNG(13)
	tr, va := ds.Split(0.8, rng)
	run := func(units int) float64 {
		r := tensor.NewRNG(14)
		m := NewMLP(r, ds.Features(), []int{16}, 10)
		m.SetParallelism(units)
		opt, _ := NewOptimizer("SGD", 0)
		h, err := m.Fit(tr.X, tr.Y, va.X, va.Y, FitConfig{Epochs: 2, BatchSize: 20, Optimizer: opt})
		if err != nil {
			t.Fatal(err)
		}
		return h.Final()
	}
	// Row-partitioned matmul is deterministic regardless of unit count.
	if a, b := run(1), run(4); a != b {
		t.Fatalf("parallelism changed results: %v vs %v", a, b)
	}
}

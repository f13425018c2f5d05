package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestDenseForwardKnownValues(t *testing.T) {
	r := tensor.NewRNG(1)
	d := NewDense(r, 2, 2)
	d.W = tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	d.B = tensor.FromSlice([]float64{0.5, -0.5}, 1, 2)
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x, true)
	if y.Data()[0] != 4.5 || y.Data()[1] != 5.5 {
		t.Fatalf("Dense forward = %v", y.Data())
	}
}

func TestDenseBackwardShapes(t *testing.T) {
	r := tensor.NewRNG(2)
	d := NewDense(r, 3, 4)
	x := tensor.Randn(r, 5, 3)
	d.Forward(x, true)
	gin := d.Backward(tensor.Randn(r, 5, 4))
	if gin.Dim(0) != 5 || gin.Dim(1) != 3 {
		t.Fatalf("input grad shape = %v", gin.Shape())
	}
	if d.dW.Dim(0) != 3 || d.dW.Dim(1) != 4 {
		t.Fatalf("dW shape = %v", d.dW.Shape())
	}
	if d.dB.Size() != 4 {
		t.Fatalf("dB size = %d", d.dB.Size())
	}
}

// Numerical gradient check: analytic dW must match finite differences.
func TestDenseGradientNumerically(t *testing.T) {
	r := tensor.NewRNG(3)
	d := NewDense(r, 3, 2)
	x := tensor.Randn(r, 4, 3)
	labels := []int{0, 1, 0, 1}
	var loss SoftmaxCrossEntropy

	forward := func() float64 {
		logits := d.Forward(x, true)
		l, _ := loss.Loss(logits, labels)
		return l
	}

	logits := d.Forward(x, true)
	_, grad := loss.Loss(logits, labels)
	d.Backward(grad)
	analytic := d.dW.Clone()

	const eps = 1e-6
	wd := d.W.Data()
	for i := 0; i < d.W.Size(); i++ {
		orig := wd[i]
		wd[i] = orig + eps
		lp := forward()
		wd[i] = orig - eps
		lm := forward()
		wd[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic.Data()[i]) > 1e-5 {
			t.Fatalf("dW[%d]: analytic %v vs numeric %v", i, analytic.Data()[i], numeric)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2}, 1, 3)
	y := l.Forward(x, true)
	if y.Data()[0] != 0 || y.Data()[2] != 2 {
		t.Fatalf("ReLU forward = %v", y.Data())
	}
	g := l.Backward(tensor.FromSlice([]float64{5, 5, 5}, 1, 3))
	if g.Data()[0] != 0 || g.Data()[2] != 5 {
		t.Fatalf("ReLU backward = %v", g.Data())
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	var l SoftmaxCrossEntropy
	// Uniform logits over 4 classes → loss = ln(4).
	logits := tensor.New(2, 4)
	loss, grad := l.Loss(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-9 {
		t.Fatalf("uniform loss = %v, want ln4", loss)
	}
	// Gradient rows sum to 0 (softmax sums to 1, minus one-hot).
	for r := 0; r < 2; r++ {
		s := 0.0
		for c := 0; c < 4; c++ {
			s += grad.Data()[r*4+c]
		}
		if math.Abs(s) > 1e-9 {
			t.Fatalf("grad row %d sums to %v", r, s)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		2, 1, 0,
		0, 2, 1,
		1, 0, 2,
		2, 0, 1,
	}, 4, 3)
	got := Accuracy(logits, []int{0, 1, 2, 1})
	if got != 0.75 {
		t.Fatalf("Accuracy = %v, want 0.75", got)
	}
	if Accuracy(tensor.New(0, 3), nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestNewOptimizerNames(t *testing.T) {
	for _, name := range []string{"SGD", "Adam", "RMSprop"} {
		o, err := NewOptimizer(name, 0)
		if err != nil {
			t.Fatalf("NewOptimizer(%s): %v", name, err)
		}
		if o.Name() != name {
			t.Fatalf("optimizer name %q != %q", o.Name(), name)
		}
	}
	if _, err := NewOptimizer("Adagrad", 0); err == nil {
		t.Fatal("expected error for unknown optimizer")
	}
}

// Every optimiser must reduce a simple convex loss f(w) = ||w||².
func TestOptimizersReduceConvexLoss(t *testing.T) {
	for _, name := range []string{"SGD", "Adam", "RMSprop"} {
		opt, err := NewOptimizer(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		w := tensor.FromSlice([]float64{3, -2, 1}, 3)
		params := []*tensor.Tensor{w}
		norm := func() float64 {
			s := 0.0
			for _, v := range w.Data() {
				s += v * v
			}
			return math.Sqrt(s)
		}
		initial := norm()
		grad := tensor.New(3)
		for step := 0; step < 200; step++ {
			for i, v := range w.Data() {
				grad.Data()[i] = 2 * v // ∇||w||² = 2w
			}
			opt.Step(params, []*tensor.Tensor{grad})
		}
		if norm() > initial*0.1 {
			t.Fatalf("%s failed to descend: |w| %v → %v", name, initial, norm())
		}
	}
}

func TestSequentialSummaryAndParams(t *testing.T) {
	r := tensor.NewRNG(5)
	m := NewMLP(r, 10, []int{8}, 3)
	// Dense(10→8): 80+8; Dense(8→3): 24+3.
	n := 0
	for _, p := range m.Params() {
		n += p.Size()
	}
	if n != 115 {
		t.Fatalf("trainable scalars = %d, want 115", n)
	}
	if len(m.Params()) != len(m.Grads()) {
		t.Fatal("Params/Grads misaligned")
	}
}

func TestSetParallelismPropagates(t *testing.T) {
	r := tensor.NewRNG(6)
	m := NewMLP(r, 4, []int{4}, 2)
	m.SetParallelism(8)
	if m.units != 8 {
		t.Fatalf("units = %d", m.units)
	}
	for _, l := range m.Layers {
		if d, ok := l.(*Dense); ok && d.units != 8 {
			t.Fatal("SetParallelism did not reach Dense layer")
		}
	}
	m.SetParallelism(0)
	if m.units != 1 {
		t.Fatalf("units floor = %d, want 1", m.units)
	}
}

// Property: model forward output shape is (batch, classes) for random sizes.
func TestForwardShapeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		in := 1 + r.Intn(10)
		classes := 2 + r.Intn(5)
		batch := 1 + r.Intn(8)
		m := NewMLP(r, in, []int{1 + r.Intn(8)}, classes)
		out := m.Forward(tensor.Randn(r, batch, in), false)
		return out.Dim(0) == batch && out.Dim(1) == classes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

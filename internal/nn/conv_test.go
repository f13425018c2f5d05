package nn

import (
	"math"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/tensor"
)

func TestConv2DOutputShape(t *testing.T) {
	r := tensor.NewRNG(1)
	c := NewConv2D(r, 8, 8, 3, 3, 3, 4)
	if c.OutH != 6 || c.OutW != 6 {
		t.Fatalf("out dims = %dx%d, want 6x6", c.OutH, c.OutW)
	}
	x := tensor.Randn(r, 2, 8*8*3)
	y := c.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 6*6*4 {
		t.Fatalf("forward shape = %v", y.Shape())
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3×3 single-channel input, 2×2 all-ones kernel, one filter:
	// each output is the sum of its 2×2 window.
	r := tensor.NewRNG(2)
	c := NewConv2D(r, 3, 3, 1, 2, 2, 1)
	c.W.Fill(1)
	c.B.Zero()
	x := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 9)
	y := c.Forward(x, true)
	want := []float64{12, 16, 24, 28} // window sums
	for i, w := range want {
		if got := y.Data()[i]; math.Abs(got-w) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestConv2DKernelTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConv2D(tensor.NewRNG(1), 2, 2, 1, 3, 3, 1)
}

// Full-stack numerical gradient check through conv + loss.
func TestConv2DGradientNumerically(t *testing.T) {
	r := tensor.NewRNG(3)
	c := NewConv2D(r, 4, 4, 1, 2, 2, 2)
	x := tensor.Randn(r, 2, 16)
	labels := []int{1, 0}
	var loss SoftmaxCrossEntropy
	// Conv output is 3·3·2 = 18 wide; treat it directly as logits over 18
	// classes? No — collapse with a fixed dense projection to 3 classes.
	proj := tensor.Randn(r, 18, 3)

	forward := func() float64 {
		h := c.Forward(x, true)
		logits := tensor.MatMulInto(tensor.New(2, 3), h, proj, 1)
		l, _ := loss.Loss(logits, labels)
		return l
	}
	h := c.Forward(x, true)
	logits := tensor.MatMulInto(tensor.New(2, 3), h, proj, 1)
	_, g := loss.Loss(logits, labels)
	gh := tensor.MatMulTransBInto(tensor.New(2, 18), g, proj, 1)
	c.Backward(gh)
	analytic := c.dW.Clone()

	const eps = 1e-6
	wd := c.W.Data()
	for i := 0; i < c.W.Size(); i++ {
		orig := wd[i]
		wd[i] = orig + eps
		lp := forward()
		wd[i] = orig - eps
		lm := forward()
		wd[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic.Data()[i]) > 1e-4 {
			t.Fatalf("dW[%d]: analytic %v vs numeric %v", i, analytic.Data()[i], numeric)
		}
	}
}

// Input-gradient check (col2im path).
func TestConv2DInputGradientNumerically(t *testing.T) {
	r := tensor.NewRNG(4)
	c := NewConv2D(r, 3, 3, 1, 2, 2, 1)
	x := tensor.Randn(r, 1, 9)
	labels := []int{2}
	var loss SoftmaxCrossEntropy

	forward := func() float64 {
		logits := c.Forward(x, true)
		l, _ := loss.Loss(logits, labels)
		return l
	}
	logits := c.Forward(x, true)
	_, g := loss.Loss(logits, labels)
	dx := c.Backward(g)

	const eps = 1e-6
	xd := x.Data()
	for i := 0; i < x.Size(); i++ {
		orig := xd[i]
		xd[i] = orig + eps
		lp := forward()
		xd[i] = orig - eps
		lm := forward()
		xd[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dx.Data()[i]) > 1e-5 {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, dx.Data()[i], numeric)
		}
	}
}

func TestMaxPool2DForwardBackward(t *testing.T) {
	p := NewMaxPool2D(2, 2, 1, 2)
	x := tensor.FromSlice([]float64{1, 5, 3, 2}, 1, 4)
	y := p.Forward(x, true)
	if y.Size() != 1 || y.Data()[0] != 5 {
		t.Fatalf("pool forward = %v", y.Data())
	}
	g := p.Backward(tensor.FromSlice([]float64{10}, 1, 1))
	want := []float64{0, 10, 0, 0} // gradient routes to the argmax
	for i, w := range want {
		if g.Data()[i] != w {
			t.Fatalf("pool backward = %v, want %v", g.Data(), want)
		}
	}
}

func TestMaxPool2DMultiChannel(t *testing.T) {
	// 2×2 image, 2 channels: channel maxima are independent.
	p := NewMaxPool2D(2, 2, 2, 2)
	x := tensor.FromSlice([]float64{
		1, 8, // (0,0) ch0, ch1
		2, 7, // (0,1)
		3, 6, // (1,0)
		4, 5, // (1,1)
	}, 1, 8)
	y := p.Forward(x, true)
	if y.Data()[0] != 4 || y.Data()[1] != 8 {
		t.Fatalf("per-channel max = %v, want [4 8]", y.Data())
	}
}

func TestMaxPool2DBadPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-dividing pool")
		}
	}()
	NewMaxPool2D(5, 5, 1, 2)
}

func TestCNNLearnsMNISTLike(t *testing.T) {
	ds := datasets.MNISTLike(300, 21)
	rng := tensor.NewRNG(22)
	tr, va := ds.Split(0.8, rng)
	r := tensor.NewRNG(23)
	m := NewCNN(r, 28, 28, 1, 4, 16, 10)
	opt, _ := NewOptimizer("Adam", 0)
	h, err := m.Fit(tr.X, tr.Y, va.X, va.Y, FitConfig{
		Epochs: 3, BatchSize: 32, Optimizer: opt, Shuffle: true, RNG: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Final() < 0.6 {
		t.Fatalf("CNN val accuracy = %v after 3 epochs, want > 0.6", h.Final())
	}
}

func TestCNNParallelismReachesConv(t *testing.T) {
	r := tensor.NewRNG(24)
	m := NewCNN(r, 8, 8, 1, 2, 8, 3)
	m.SetParallelism(4)
	found := false
	for _, l := range m.Layers {
		if c, ok := l.(*Conv2D); ok {
			if c.units != 4 {
				t.Fatal("SetParallelism did not reach Conv2D")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no conv layer in CNN")
	}
}

func TestConvSummaryNames(t *testing.T) {
	r := tensor.NewRNG(25)
	m := NewCNN(r, 8, 8, 3, 2, 8, 4)
	var names []string
	for _, l := range m.Layers {
		names = append(names, l.Name())
	}
	s := strings.Join(names, " ")
	for _, want := range []string{"Conv2D", "MaxPool2D", "Dense"} {
		if !strings.Contains(s, want) {
			t.Fatalf("layer names missing %s: %s", want, s)
		}
	}
}

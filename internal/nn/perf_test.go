package nn

import (
	"testing"

	"repro/internal/tensor"
)

// BatchNorm's column stripes must produce identical results regardless of the
// goroutine fan-out. Batch×features is chosen above the serial cutover so the
// units=8 run actually exercises the parallel path.
func TestBatchNormParallelAgreement(t *testing.T) {
	const batch, features = 512, 64
	r := tensor.NewRNG(11)
	x := tensor.Randn(r, batch, features)
	grad := tensor.Randn(r, batch, features)

	run := func(units int) (out, dX, dG, dB []float64) {
		b := NewBatchNorm(features)
		b.SetParallelism(units)
		o := b.Forward(x, true)
		d := b.Backward(grad)
		return append([]float64(nil), o.Data()...),
			append([]float64(nil), d.Data()...),
			append([]float64(nil), b.dGamma.Data()...),
			append([]float64(nil), b.dBeta.Data()...)
	}

	o1, d1, g1, b1 := run(1)
	o8, d8, g8, b8 := run(8)
	for name, pair := range map[string][2][]float64{
		"out": {o1, o8}, "dX": {d1, d8}, "dGamma": {g1, g8}, "dBeta": {b1, b8},
	} {
		a, b := pair[0], pair[1]
		for i := range a {
			if diff := a[i] - b[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("%s[%d]: serial %v vs parallel %v", name, i, a[i], b[i])
			}
		}
	}
}

// Dense.BackwardParamsOnly must accumulate exactly the dW/dB that the full
// Backward does — it only skips the input-gradient product. This pins the
// first-layer skip in Sequential.Backward to the full-path semantics.
func TestDenseBackwardParamsOnlyMatchesBackward(t *testing.T) {
	r := tensor.NewRNG(5)
	x := tensor.Randn(r, 7, 13)
	grad := tensor.Randn(r, 7, 4)

	full := NewDense(tensor.NewRNG(6), 13, 4)
	skip := NewDense(tensor.NewRNG(6), 13, 4)
	full.Forward(x, true)
	skip.Forward(x, true)
	full.Backward(grad)
	skip.BackwardParamsOnly(grad)

	if !full.dW.AllClose(skip.dW, 1e-12) {
		t.Fatal("BackwardParamsOnly dW differs from Backward dW")
	}
	if !full.dB.AllClose(skip.dB, 1e-12) {
		t.Fatal("BackwardParamsOnly dB differs from Backward dB")
	}
}

// benchConv builds the Conv2D used by the forward/backward benchmarks and
// the allocation guard: 8×8×3 input, 3×3 kernel, 8 filters, batch 32.
func benchConv(tb testing.TB) (*Conv2D, *tensor.Tensor) {
	tb.Helper()
	r := tensor.NewRNG(1)
	c := NewConv2D(r, 8, 8, 3, 3, 3, 8)
	x := tensor.Randn(r, 32, 8*8*3)
	return c, x
}

// TestConv2DSteadyStateAllocs pins the allocation contract of
// docs/PERFORMANCE.md: once the scratch buffers are warm, Conv2D allocates
// only small tensor headers per call, never a data buffer.
func TestConv2DSteadyStateAllocs(t *testing.T) {
	c, x := benchConv(t)
	out := c.Forward(x, true) // warm the scratch buffers
	grad := tensor.Randn(tensor.NewRNG(2), out.Dim(0), out.Dim(1))
	c.Backward(grad)
	if n := testing.AllocsPerRun(20, func() { c.Forward(x, true) }); n > 2 {
		t.Errorf("Conv2D.Forward: %.1f allocs per call, want at most 2", n)
	}
	if n := testing.AllocsPerRun(20, func() { c.Backward(grad) }); n > 7 {
		t.Errorf("Conv2D.Backward: %.1f allocs per call, want at most 7", n)
	}
}

// BenchmarkConv2DForward tracks ns/op and allocs/op of the im2col+GEMM
// forward path; steady-state iterations allocate no data buffers.
func BenchmarkConv2DForward(b *testing.B) {
	c, x := benchConv(b)
	c.Forward(x, true) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x, true)
	}
}

// BenchmarkConv2DBackward tracks the full backward path (param grads +
// input gradient via the transpose-free kernels + col2im).
func BenchmarkConv2DBackward(b *testing.B) {
	c, x := benchConv(b)
	out := c.Forward(x, true)
	r := tensor.NewRNG(2)
	grad := tensor.Randn(r, out.Dim(0), out.Dim(1))
	c.Backward(grad) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Backward(grad)
	}
}

// BenchmarkDenseForwardBackward tracks the fully connected hot path used by
// the MLP benchmark workload (784→32), batch 32.
func BenchmarkDenseForwardBackward(b *testing.B) {
	r := tensor.NewRNG(3)
	d := NewDense(r, 784, 32)
	x := tensor.Randn(r, 32, 784)
	grad := tensor.Randn(r, 32, 32)
	d.Forward(x, true)
	d.Backward(grad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x, true)
		d.Backward(grad)
	}
}

package tensor

import (
	"testing"
	"testing/quick"
)

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !c.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", c.Data(), want.Data())
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRNG(1)
	a := Randn(r, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	if !MatMul(a, id).AllClose(a, 1e-12) {
		t.Fatal("A×I != A")
	}
	if !MatMul(id, a).AllClose(a, 1e-12) {
		t.Fatal("I×A != A")
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner dimension mismatch")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// Row panels split at register-tile boundaries, so every output element is
// computed by the same tile code whatever the unit count: the results are
// equal, not merely close.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	r := NewRNG(7)
	for _, units := range []int{2, 3, 4, 8, 100} {
		a := Randn(r, 17, 13)
		b := Randn(r, 13, 9)
		serial := MatMulParallel(a, b, 1)
		par := MatMulParallel(a, b, units)
		if !serial.Equal(par) {
			t.Fatalf("units=%d: parallel result differs from serial", units)
		}
	}
}

func TestMatMulEmpty(t *testing.T) {
	c := MatMul(New(0, 3), New(3, 4))
	if c.Dim(0) != 0 || c.Dim(1) != 4 {
		t.Fatalf("empty matmul shape = %v", c.Shape())
	}
}

// Property: (A×B)ᵀ == Bᵀ×Aᵀ for random shapes and values.
func TestMatMulTransposeProperty(t *testing.T) {
	r := NewRNG(42)
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		m, k, n := 1+rr.Intn(8), 1+rr.Intn(8), 1+rr.Intn(8)
		a := Randn(r, m, k)
		b := Randn(r, k, n)
		lhs := MatMul(a, b).Transpose()
		rhs := MatMul(b.Transpose(), a.Transpose())
		return lhs.AllClose(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition:
// A×(B+C) == A×B + A×C.
func TestMatMulDistributivityProperty(t *testing.T) {
	r := NewRNG(43)
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		m, k, n := 1+rr.Intn(6), 1+rr.Intn(6), 1+rr.Intn(6)
		a := Randn(r, m, k)
		b := Randn(r, k, n)
		c := Randn(r, k, n)
		lhs := MatMul(a, b.Add(c))
		rhs := MatMul(a, b).Add(MatMul(a, c))
		return lhs.AllClose(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: parallel and serial matmul agree for arbitrary unit counts.
func TestMatMulParallelAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		m, k, n := 1+rr.Intn(12), 1+rr.Intn(12), 1+rr.Intn(12)
		units := 1 + rr.Intn(16)
		a := Randn(rr, m, k)
		b := Randn(rr, k, n)
		return MatMulParallel(a, b, units).AllClose(MatMulParallel(a, b, 1), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// matmulRef is the naive triple-loop reference the tiled kernels are checked
// against: an independent implementation, deliberately free of tiling,
// panels, or unrolling.
func matmulRef(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += ad[i*k+p] * bd[p*n+j]
			}
			od[i*n+j] = s
		}
	}
	return out
}

// edgeShapes exercises the kernel's remainder paths: empty output, k=1,
// single rows/columns, tall-skinny and short-fat panels, shapes straddling
// the 4×4 register tile and the 256-wide k panel, and non-divisible
// remainders in every dimension.
var edgeShapes = [][3]int{
	{0, 3, 4}, {3, 0, 4}, {3, 4, 0},
	{1, 1, 1}, {1, 7, 1}, {5, 1, 5},
	{4, 4, 4}, {5, 5, 5}, {7, 9, 11},
	{4, 256, 4}, {4, 257, 4}, {3, 511, 2},
	{129, 3, 2}, {2, 3, 129}, {65, 17, 33},
	{100, 1, 100}, {31, 258, 29},
}

// TestMatMulVariantsMatchReference pins every kernel entry point — serial
// tiled, parallel and the NN, TransA and TransB *Into forms — to the naive
// reference within 1e-9 across the edge shapes. Run under -race in CI, this
// also checks the row-panel fan-out for data races.
func TestMatMulVariantsMatchReference(t *testing.T) {
	r := NewRNG(99)
	for _, sh := range edgeShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := Randn(r, m, k)
		b := Randn(r, k, n)
		want := matmulRef(a, b)
		for _, units := range []int{1, 3, 8} {
			if got := MatMulParallel(a, b, units); !got.AllClose(want, 1e-9) {
				t.Fatalf("MatMulParallel(%v, units=%d) differs from reference", sh, units)
			}
			// Into on a dirty destination: stale contents must be overwritten.
			dst := Full(42, m, n)
			if got := MatMulInto(dst, a, b, units); !got.AllClose(want, 1e-9) {
				t.Fatalf("MatMulInto(%v, units=%d) differs from reference", sh, units)
			}
			// aᵀ×b via TransA, handing the kernel a k×m operand.
			at := a.Transpose()
			dst = Full(-7, m, n)
			if got := MatMulTransAInto(dst, at, b, units); !got.AllClose(want, 1e-9) {
				t.Fatalf("MatMulTransAInto(%v, units=%d) differs from reference", sh, units)
			}
			// a×bᵀ via TransB, handing the kernel an n×k operand.
			bt := b.Transpose()
			dst = Full(1e9, m, n)
			if got := MatMulTransBInto(dst, a, bt, units); !got.AllClose(want, 1e-9) {
				t.Fatalf("MatMulTransBInto(%v, units=%d) differs from reference", sh, units)
			}
		}
	}
}

// Property: random shapes (biased to tile remainders) and unit counts agree
// with the reference for all variants.
func TestMatMulVariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		m, k, n := 1+rr.Intn(70), 1+rr.Intn(300), 1+rr.Intn(70)
		units := 1 + rr.Intn(8)
		a := Randn(rr, m, k)
		b := Randn(rr, k, n)
		want := matmulRef(a, b)
		return MatMulParallel(a, b, units).AllClose(want, 1e-9) &&
			MatMulTransAInto(New(m, n), a.Transpose(), b, units).AllClose(want, 1e-9) &&
			MatMulTransBInto(New(m, n), a, b.Transpose(), units).AllClose(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransShapeMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"TransA": func() { MatMulTransAInto(New(2, 5), New(3, 2), New(4, 5), 1) },
		"TransB": func() { MatMulTransBInto(New(2, 5), New(2, 3), New(5, 4), 1) },
		"Into":   func() { MatMulInto(New(9, 9), New(2, 3), New(3, 4), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic for shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func benchGFLOPS(b *testing.B, size int, fn func(x, y *Tensor)) {
	r := NewRNG(1)
	x := Randn(r, size, size)
	y := Randn(r, size, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(x, y)
	}
	flops := 2 * float64(size) * float64(size) * float64(size)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkMatMulNaive pins the pre-tiling reference kernel so the speedup
// of the blocked kernel stays visible in bench output.
func BenchmarkMatMulNaive(b *testing.B) {
	benchGFLOPS(b, 128, func(x, y *Tensor) { matmulRef(x, y) })
}

func BenchmarkMatMulTransA(b *testing.B) {
	dst := New(128, 128)
	benchGFLOPS(b, 128, func(x, y *Tensor) { MatMulTransAInto(dst, x, y, 1) })
}

func BenchmarkMatMulTransB(b *testing.B) {
	dst := New(128, 128)
	benchGFLOPS(b, 128, func(x, y *Tensor) { MatMulTransBInto(dst, x, y, 1) })
}

func BenchmarkMatMulSerial(b *testing.B) {
	benchGFLOPS(b, 128, func(x, y *Tensor) { MatMulParallel(x, y, 1) })
}

func BenchmarkMatMulParallel4(b *testing.B) {
	benchGFLOPS(b, 128, func(x, y *Tensor) { MatMulParallel(x, y, 4) })
}

// BenchmarkEpochGEMM runs the matrix products of one train_heavy epoch in the
// order of the benchmark's gemmEpoch probe, on one unit, so its GFLOP/s is
// that probe's tensor.gemm_gflops_u1. The model is the 784→64→10 MLP: per
// batch of 32 the two forward products, dW and dX of the output layer and dW
// of the first layer; 20 batches, then the 160-row validation forward pass.
func BenchmarkEpochGEMM(b *testing.B) {
	const in, hidden, classes = 784, 64, 10
	r := NewRNG(1)
	w1, w2 := Randn(r, in, hidden), Randn(r, hidden, classes)
	dw1, dw2 := New(in, hidden), New(hidden, classes)
	var calls []func()
	flops := 0.0
	add := func(bs int, train bool) {
		x, h, logits, dh := Randn(r, bs, in), New(bs, hidden), New(bs, classes), New(bs, hidden)
		calls = append(calls,
			func() { MatMulInto(h, x, w1, 1) },
			func() { MatMulInto(logits, h, w2, 1) })
		flops += 2 * float64(bs*hidden*(in+classes))
		if train {
			calls = append(calls,
				func() { MatMulTransAInto(dw2, h, logits, 1) },
				func() { MatMulTransBInto(dh, logits, w2, 1) },
				func() { MatMulTransAInto(dw1, x, dh, 1) })
			flops += 2 * float64(bs*hidden*(in+2*classes))
		}
	}
	for range 20 {
		add(32, true)
	}
	add(160, false)
	for b.Loop() {
		for _, c := range calls {
			c()
		}
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

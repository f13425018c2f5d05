package tensor

import "testing"

// SIMDPaths are the kernel selections the contract tests compare: the
// scalar code alone, the AVX2 kernels with the AVX-512 tile off (so tile4x8
// is still tested on an AVX-512 host), and everything the CPU has. Have is
// false for a path this CPU cannot run; Feature names what it lacks. The
// optimiser contract in package tensor_test uses them too.
var SIMDPaths = []struct {
	Name         string
	AVX2, AVX512 bool
	Have         bool
	Feature      string
}{
	{"scalar", false, false, true, ""},
	{"avx2", true, false, useAVX2, "AVX2"},
	{"avx512", true, true, useAVX512, "AVX-512"},
}

// SetSIMD selects a kernel path and returns a func that restores the
// detected one. Tests that call it must not run in parallel.
func SetSIMD(avx2, avx512 bool) (restore func()) {
	d2, d512 := useAVX2, useAVX512
	useAVX2, useAVX512 = avx2, avx512
	return func() { useAVX2, useAVX512 = d2, d512 }
}

// TestAVX2TileBitIdentical runs every product through the scalar code
// only, then once per assembly path — the AVX2 kernels alone (4×8 tiles,
// masked column tiles and the masked row kernel), and AVX-512 4×16 tiles
// ahead of them — at 1–3 units, and requires results equal element for
// element: every assembly kernel must round exactly like the scalar code. Shapes are random m∈[1,70] (row tails), k∈[1,900] (several
// kcBlock panels), n∈[1,70] (n%16, n%8 and n%4 column tails), n∈[16,31]
// and 64 (a 4×16 tile next to a 4×8 tile and the tails inside one
// product), plus the Dense products of the benchmark's four workloads. A
// path the CPU lacks skips its subtest. It toggles the package-level
// kernel switches, so it must not run in parallel with other tests.
func TestAVX2TileBitIdentical(t *testing.T) {
	r := NewRNG(28)
	var shapes [][3]int
	for len(shapes) < 300 {
		shapes = append(shapes, [3]int{1 + r.Intn(70), 1 + r.Intn(900), 1 + r.Intn(70)})
	}
	for n := 16; n < 32; n++ {
		shapes = append(shapes, [3]int{1 + r.Intn(70), 1 + r.Intn(900), n})
	}
	shapes = append(shapes, [3]int{32, 784, 64}, [3]int{37, 300, 64})
	// samples, hidden units, batch size of train_heavy, report_heavy,
	// remote_rungs and churn_restart; 784 inputs, 10 classes.
	for _, w := range [][3]int{{800, 64, 32}, {10, 2, 8}, {64, 8, 32}, {200, 8, 32}} {
		samples, hidden, batch := w[0], w[1], w[2]
		train := samples * 8 / 10
		for _, bs := range []int{batch, train % batch, samples - train} {
			if bs > 0 {
				shapes = append(shapes, [3]int{bs, 784, hidden}, [3]int{bs, hidden, 10},
					[3]int{hidden, bs, 10}, [3]int{784, bs, hidden})
			}
		}
	}
	type product struct{ a, at, b, wantNN, wantTA *Tensor }
	products := make([]product, len(shapes))
	restore := SetSIMD(false, false)
	for i, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		p := product{a: Randn(r, m, k), at: Randn(r, k, m), b: Randn(r, k, n)}
		p.wantNN = MatMulInto(New(m, n), p.a, p.b, 1)
		p.wantTA = MatMulTransAInto(New(m, n), p.at, p.b, 1)
		products[i] = p
	}
	restore()
	for _, path := range SIMDPaths {
		t.Run(path.Name, func(t *testing.T) {
			if !path.Have {
				t.Skipf("CPU or OS without %s: its tiles cannot run here", path.Feature)
			}
			defer SetSIMD(path.AVX2, path.AVX512)()
			for i, sh := range shapes {
				m, n, p := sh[0], sh[2], products[i]
				for units := 1; units <= 3; units++ {
					if got := MatMulInto(Full(42, m, n), p.a, p.b, units); !got.Equal(p.wantNN) {
						t.Fatalf("MatMulInto %v units=%d: not bit-identical to the scalar serial result", sh, units)
					}
					if got := MatMulTransAInto(Full(42, m, n), p.at, p.b, units); !got.Equal(p.wantTA) {
						t.Fatalf("MatMulTransAInto %v units=%d: not bit-identical to the scalar serial result", sh, units)
					}
				}
			}
		})
	}
}

// TestNarrowGEMMBitIdentical sweeps the shapes the masked kernels take:
// every n in 1..17 (n mod 8 and n mod 4 column tails next to zero, one or
// two 4×8 tiles and a 4×16 one), every m in 1..9 (zero to three tail rows
// next to zero to two 4-row blocks), and k ∈ {1, 8, 256, 257, 784} (one
// step, one panel, a full panel, a one-step second panel, and 784 inputs
// over four panels, where the row tail chains from the destination across
// panels). Both products run at 1–3 units on destinations filled with 42
// and must equal the scalar serial result element for element. It toggles
// the package-level kernel switches, so it must not run in parallel with
// other tests.
func TestNarrowGEMMBitIdentical(t *testing.T) {
	type product struct {
		m, k, n                  int
		a, at, b, wantNN, wantTA *Tensor
	}
	r := NewRNG(45)
	var products []product
	restore := SetSIMD(false, false)
	for _, k := range []int{1, 8, 256, 257, 784} {
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 17; n++ {
				p := product{m: m, k: k, n: n, a: Randn(r, m, k), at: Randn(r, k, m), b: Randn(r, k, n)}
				p.wantNN = MatMulInto(Full(42, m, n), p.a, p.b, 1)
				p.wantTA = MatMulTransAInto(Full(42, m, n), p.at, p.b, 1)
				products = append(products, p)
			}
		}
	}
	restore()
	for _, path := range SIMDPaths[1:] {
		t.Run(path.Name, func(t *testing.T) {
			if !path.Have {
				t.Skipf("CPU or OS without %s: its kernels cannot run here", path.Feature)
			}
			defer SetSIMD(path.AVX2, path.AVX512)()
			for _, p := range products {
				for units := 1; units <= 3; units++ {
					if got := MatMulInto(Full(42, p.m, p.n), p.a, p.b, units); !got.Equal(p.wantNN) {
						t.Fatalf("MatMulInto m=%d k=%d n=%d units=%d: not bit-identical to the scalar serial result", p.m, p.k, p.n, units)
					}
					if got := MatMulTransAInto(Full(42, p.m, p.n), p.at, p.b, units); !got.Equal(p.wantTA) {
						t.Fatalf("MatMulTransAInto m=%d k=%d n=%d units=%d: not bit-identical to the scalar serial result", p.m, p.k, p.n, units)
					}
				}
			}
		})
	}
}

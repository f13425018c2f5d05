package tensor

import "testing"

// TestAVX2TileBitIdentical runs every product through the scalar tiles only
// and again with the AVX2 4×8 tile, at 1–3 units, and requires results
// equal element for element: the assembly tile must round exactly like the
// scalar one. Shapes are random m∈[1,70] (row tails), k∈[1,900] (several
// kcBlock panels), n∈[1,70] (n%8 and n%4 column tails), plus the Dense
// products of the benchmark's four workloads. It toggles the package-level
// useAVX2, so it must not run in parallel with other tests.
func TestAVX2TileBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS without AVX2: only the scalar tiles run here")
	}
	defer func() { useAVX2 = true }()
	r := NewRNG(28)
	var shapes [][3]int
	for len(shapes) < 300 {
		shapes = append(shapes, [3]int{1 + r.Intn(70), 1 + r.Intn(900), 1 + r.Intn(70)})
	}
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
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, at, b := Randn(r, m, k), Randn(r, k, m), Randn(r, k, n)
		useAVX2 = false
		wantNN := MatMulInto(New(m, n), a, b, 1)
		wantTA := MatMulTransAInto(New(m, n), at, b, 1)
		for _, avx := range []bool{false, true} {
			useAVX2 = avx
			for units := 1; units <= 3; units++ {
				if got := MatMulInto(Full(42, m, n), a, b, units); !got.Equal(wantNN) {
					t.Fatalf("MatMulInto %v units=%d avx=%v: not bit-identical to the scalar serial result", sh, units, avx)
				}
				if got := MatMulTransAInto(Full(42, m, n), at, b, units); !got.Equal(wantTA) {
					t.Fatalf("MatMulTransAInto %v units=%d avx=%v: not bit-identical to the scalar serial result", sh, units, avx)
				}
			}
		}
	}
}

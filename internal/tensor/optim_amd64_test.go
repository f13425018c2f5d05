package tensor_test

import (
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestOptimizerStepBitIdentical steps SGD, Adam and RMSprop through the
// scalar element loops and, in lockstep from the same parameters and
// gradients, through each SIMD path, and requires equal parameters after
// every step. Lengths 0..67 cover every tail of the four-lane kernels; each
// length draws its own lr, momentum and ρ and runs 1000 steps, so Adam's
// bias corrections run through t = 1000. Gradients span eight orders of
// magnitude and include exact zeros. It toggles the package-level kernel
// switches, so it must not run in parallel with other tests.
func TestOptimizerStepBitIdentical(t *testing.T) {
	for _, path := range tensor.SIMDPaths[1:] {
		t.Run(path.Name, func(t *testing.T) {
			if !path.Have {
				t.Skipf("CPU or OS without %s: its kernels cannot run here", path.Feature)
			}
			r := tensor.NewRNG(40)
			for n := 0; n <= 67; n++ {
				lr := math.Pow(10, -4+3.5*r.Float64())
				mom := 0.99 * r.Float64()
				rho := 0.5 + 0.499*r.Float64()
				for _, pair := range [][2]nn.Optimizer{
					{&nn.SGD{LR: lr, Momentum: mom}, &nn.SGD{LR: lr, Momentum: mom}},
					{&nn.Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}, &nn.Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}},
					{&nn.RMSprop{LR: lr, Rho: rho, Eps: 1e-8}, &nn.RMSprop{LR: lr, Rho: rho, Eps: 1e-8}},
				} {
					want := tensor.Randn(r, n)
					got := want.Clone()
					for step := 1; step <= 1000; step++ {
						g := tensor.Randn(r, n)
						scale := math.Pow(10, -6+8*r.Float64())
						gd := g.Data()
						for j := range gd {
							if r.Intn(16) == 0 {
								gd[j] = 0
							} else {
								gd[j] *= scale
							}
						}
						restore := tensor.SetSIMD(false, false)
						pair[0].Step([]*tensor.Tensor{want}, []*tensor.Tensor{g})
						restore()
						restore = tensor.SetSIMD(path.AVX2, path.AVX512)
						pair[1].Step([]*tensor.Tensor{got}, []*tensor.Tensor{g})
						restore()
						if !got.Equal(want) {
							t.Fatalf("%s n=%d lr=%g momentum=%g rho=%g step %d: SIMD parameters differ from the scalar loop",
								pair[0].Name(), n, lr, mom, rho, step)
						}
					}
				}
			}
		})
	}
}

// TestOptimizerFitBitIdentical trains the train_heavy model (784→64→10,
// batch 32, 3 epochs on 800 MNIST-like samples) once per optimiser on the
// scalar code alone and again on each SIMD path — GEMM tiles and optimiser
// kernels together — and requires the same losses, accuracies and final
// parameters, bit for bit.
func TestOptimizerFitBitIdentical(t *testing.T) {
	ds := datasets.MNISTLike(800, 40)
	tr, va := ds.Split(0.8, tensor.NewRNG(41))
	fit := func(t *testing.T, opt string) (*nn.History, []*tensor.Tensor) {
		r := tensor.NewRNG(42)
		m := nn.NewMLP(r, ds.Features(), []int{64}, 10)
		o, err := nn.NewOptimizer(opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := m.Fit(tr.X, tr.Y, va.X, va.Y, nn.FitConfig{Epochs: 3, BatchSize: 32, Optimizer: o, Shuffle: true, RNG: r})
		if err != nil {
			t.Fatal(err)
		}
		return h, m.Params()
	}
	for _, opt := range []string{"Adam", "RMSprop", "SGD"} {
		restore := tensor.SetSIMD(false, false)
		wantH, wantP := fit(t, opt)
		restore()
		for _, path := range tensor.SIMDPaths[1:] {
			t.Run(opt+"/"+path.Name, func(t *testing.T) {
				if !path.Have {
					t.Skipf("CPU or OS without %s: its kernels cannot run here", path.Feature)
				}
				defer tensor.SetSIMD(path.AVX2, path.AVX512)()
				h, params := fit(t, opt)
				for _, c := range []struct {
					name      string
					got, want []float64
				}{
					{"train loss", h.TrainLoss, wantH.TrainLoss}, {"train accuracy", h.TrainAcc, wantH.TrainAcc},
					{"validation loss", h.ValLoss, wantH.ValLoss}, {"validation accuracy", h.ValAcc, wantH.ValAcc},
				} {
					for e := range c.want {
						if c.got[e] != c.want[e] {
							t.Fatalf("epoch %d %s = %v, scalar code gives %v", e, c.name, c.got[e], c.want[e])
						}
					}
				}
				for i := range wantP {
					if !params[i].Equal(wantP[i]) {
						t.Fatalf("parameter tensor %d differs from the scalar code's after 3 epochs", i)
					}
				}
			})
		}
	}
}

// BenchmarkOptimizerStep times one step of each optimiser over the 50 890
// parameters of the train_heavy model (784→64→10), on the scalar loops and
// on the SIMD kernels, and reports the cost per parameter.
func BenchmarkOptimizerStep(b *testing.B) {
	r := tensor.NewRNG(1)
	var params, grads []*tensor.Tensor
	size := 0
	for _, sh := range [][2]int{{784, 64}, {1, 64}, {64, 10}, {1, 10}} {
		params = append(params, tensor.Randn(r, sh[0], sh[1]))
		grads = append(grads, tensor.Randn(r, sh[0], sh[1]))
		size += sh[0] * sh[1]
	}
	for _, opt := range []string{"Adam", "RMSprop", "SGD"} {
		for _, path := range tensor.SIMDPaths[:2] {
			b.Run(opt+"/"+path.Name, func(b *testing.B) {
				if !path.Have {
					b.Skipf("CPU or OS without %s", path.Feature)
				}
				defer tensor.SetSIMD(path.AVX2, path.AVX512)()
				o, err := nn.NewOptimizer(opt, 0)
				if err != nil {
					b.Fatal(err)
				}
				for b.Loop() {
					o.Step(params, grads)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/param")
			})
		}
	}
}

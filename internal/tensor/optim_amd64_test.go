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
// batch 32, 3 epochs on 800 MNIST-like samples) and the report_heavy model
// (784→2→10, batches of 8 and 16, 5 epochs on 10 samples: a 2-column first
// layer and a 2-row validation batch) once per optimiser on the scalar code
// alone and again on each SIMD path — GEMM kernels and optimiser kernels
// together — and requires the same losses, accuracies and final
// parameters, bit for bit.
func TestOptimizerFitBitIdentical(t *testing.T) {
	models := []struct {
		name                           string
		samples, hidden, batch, epochs int
	}{
		{"train_heavy", 800, 64, 32, 3},
		{"report_heavy batch 8", 10, 2, 8, 5},
		{"report_heavy batch 16", 10, 2, 16, 5},
	}
	fit := func(t *testing.T, opt string, i int) (*nn.History, []*tensor.Tensor) {
		c := models[i]
		ds := datasets.MNISTLike(c.samples, 40)
		tr, va := ds.Split(0.8, tensor.NewRNG(41))
		r := tensor.NewRNG(42)
		m := nn.NewMLP(r, ds.Features(), []int{c.hidden}, 10)
		o, err := nn.NewOptimizer(opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := m.Fit(tr.X, tr.Y, va.X, va.Y, nn.FitConfig{Epochs: c.epochs, BatchSize: c.batch, Optimizer: o, Shuffle: true, RNG: r})
		if err != nil {
			t.Fatal(err)
		}
		return h, m.Params()
	}
	for _, opt := range []string{"Adam", "RMSprop", "SGD"} {
		wantH := make([]*nn.History, len(models))
		wantP := make([][]*tensor.Tensor, len(models))
		restore := tensor.SetSIMD(false, false)
		for i := range models {
			wantH[i], wantP[i] = fit(t, opt, i)
		}
		restore()
		for _, path := range tensor.SIMDPaths[1:] {
			t.Run(opt+"/"+path.Name, func(t *testing.T) {
				if !path.Have {
					t.Skipf("CPU or OS without %s: its kernels cannot run here", path.Feature)
				}
				defer tensor.SetSIMD(path.AVX2, path.AVX512)()
				for i, model := range models {
					h, params := fit(t, opt, i)
					for _, c := range []struct {
						name      string
						got, want []float64
					}{
						{"train loss", h.TrainLoss, wantH[i].TrainLoss}, {"train accuracy", h.TrainAcc, wantH[i].TrainAcc},
						{"validation loss", h.ValLoss, wantH[i].ValLoss}, {"validation accuracy", h.ValAcc, wantH[i].ValAcc},
					} {
						for e := range c.want {
							if c.got[e] != c.want[e] {
								t.Fatalf("%s: epoch %d %s = %v, scalar code gives %v", model.name, e, c.name, c.got[e], c.want[e])
							}
						}
					}
					for j := range wantP[i] {
						if !params[j].Equal(wantP[i][j]) {
							t.Fatalf("%s: parameter tensor %d differs from the scalar code's after %d epochs", model.name, j, model.epochs)
						}
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

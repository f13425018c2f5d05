// Package datasets provides the labelled image datasets the HPO experiments
// train on. The paper uses MNIST and CIFAR-10; because this environment is
// offline, the default datasets are deterministic synthetic substitutes with
// the same tensor shapes and qualitatively matching difficulty:
//
//   - MNISTLike: 28×28×1, ten well-separated classes. Simple models exceed
//     90% validation accuracy within a few epochs, which is the property
//     Figure 7 depends on ("most of the combinations ... attain above 90%").
//   - CIFARLike: 32×32×3, ten overlapping classes with heavier noise. Models
//     learn more slowly and plateau lower, matching Figure 8's "slightly
//     bigger and more complex benchmark".
//
// Real MNIST waits until its files, and a way to select them, are in the
// repository; until then every dataset is synthesized from its seed.
package datasets

import (
	"fmt"

	"repro/internal/tensor"
)

// Dataset is a labelled classification set with flattened features.
type Dataset struct {
	// Name identifies the dataset in logs and experiment tables.
	Name string
	// X has one row per sample (features flattened row-major).
	X *tensor.Tensor
	// Y holds integer class labels aligned with X's rows.
	Y []int
	// Classes is the number of distinct labels.
	Classes int
	// ImageShape records the original (H, W, C) geometry before flattening.
	ImageShape [3]int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Features returns the flattened feature width.
func (d *Dataset) Features() int { return d.X.Dim(1) }

// Split partitions the dataset into a training and validation set, with
// trainFrac of samples (rounded down) in the first. The split is
// deterministic given rng.
func (d *Dataset) Split(trainFrac float64, rng *tensor.RNG) (train, val *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("datasets: trainFrac %v out of (0,1)", trainFrac))
	}
	n := d.Len()
	perm := rng.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	return d.subset(perm[:nTrain], "/train"), d.subset(perm[nTrain:], "/val")
}

func (d *Dataset) subset(rows []int, suffix string) *Dataset {
	cols := d.Features()
	x := tensor.New(len(rows), cols)
	y := make([]int, len(rows))
	sd, xd := d.X.Data(), x.Data()
	for i, r := range rows {
		copy(xd[i*cols:(i+1)*cols], sd[r*cols:(r+1)*cols])
		y[i] = d.Y[r]
	}
	return &Dataset{Name: d.Name + suffix, X: x, Y: y, Classes: d.Classes, ImageShape: d.ImageShape}
}

// SynthConfig controls synthetic dataset generation.
type SynthConfig struct {
	Samples int
	Classes int
	H, W, C int
	// Noise is the per-pixel Gaussian noise standard deviation.
	Noise float64
	// Shift is the maximum random translation in pixels, adding intra-class
	// variation.
	Shift int
	// PrototypeScale scales the class prototypes; smaller values make
	// classes overlap more (harder problems).
	PrototypeScale float64
	Seed           uint64
	Name           string
}

// MNISTLike returns a synthetic stand-in for MNIST: 28×28 grayscale, ten
// well-separated classes.
func MNISTLike(samples int, seed uint64) *Dataset {
	return Synthetic(SynthConfig{
		Samples: samples, Classes: 10, H: 28, W: 28, C: 1,
		Noise: 0.25, Shift: 2, PrototypeScale: 1.5, Seed: seed, Name: "mnist-like",
	})
}

// CIFARLike returns a synthetic stand-in for CIFAR-10: 32×32 RGB, ten
// overlapping classes with heavier noise, so models learn more slowly and
// plateau lower than on MNISTLike.
func CIFARLike(samples int, seed uint64) *Dataset {
	return Synthetic(SynthConfig{
		Samples: samples, Classes: 10, H: 32, W: 32, C: 3,
		Noise: 1.5, Shift: 5, PrototypeScale: 0.5, Seed: seed, Name: "cifar-like",
	})
}

// Synthetic generates a classification dataset from smoothed random class
// prototypes plus translation and Gaussian noise. Samples are balanced
// across classes (round-robin) and the generator is fully deterministic
// given the config.
func Synthetic(cfg SynthConfig) *Dataset {
	if cfg.Samples <= 0 || cfg.Classes <= 0 {
		panic(fmt.Sprintf("datasets: invalid SynthConfig %+v", cfg))
	}
	rng := tensor.NewRNG(cfg.Seed)
	features := cfg.H * cfg.W * cfg.C

	// Build one smoothed prototype image per class.
	protos := make([][]float64, cfg.Classes)
	for c := range protos {
		protos[c] = makePrototype(rng, cfg)
	}

	x := tensor.New(cfg.Samples, features)
	y := make([]int, cfg.Samples)
	xd := x.Data()
	for i := 0; i < cfg.Samples; i++ {
		class := i % cfg.Classes
		y[i] = class
		row := xd[i*features : (i+1)*features]
		renderSample(rng, cfg, protos[class], row)
	}
	return &Dataset{
		Name:       cfg.Name,
		X:          x,
		Y:          y,
		Classes:    cfg.Classes,
		ImageShape: [3]int{cfg.H, cfg.W, cfg.C},
	}
}

// makePrototype builds a class prototype: a coarse random grid upsampled to
// H×W (bilinear-ish via nearest on a 4×4 grid), replicated across channels
// with per-channel sign flips so RGB classes differ per channel.
func makePrototype(rng *tensor.RNG, cfg SynthConfig) []float64 {
	const grid = 4
	coarse := make([]float64, grid*grid)
	for i := range coarse {
		coarse[i] = rng.NormFloat64() * cfg.PrototypeScale
	}
	proto := make([]float64, cfg.H*cfg.W*cfg.C)
	for ch := 0; ch < cfg.C; ch++ {
		sign := 1.0
		if ch > 0 && rng.Float64() < 0.5 {
			sign = -1
		}
		for r := 0; r < cfg.H; r++ {
			for c := 0; c < cfg.W; c++ {
				gr := r * grid / cfg.H
				gc := c * grid / cfg.W
				proto[(r*cfg.W+c)*cfg.C+ch] = sign * coarse[gr*grid+gc]
			}
		}
	}
	return proto
}

// renderSample writes one noisy, shifted copy of proto into dst: one
// FillNorm draws the noise in pixel order, then each row adds the
// prototype shifted by (dr, dc).
func renderSample(rng *tensor.RNG, cfg SynthConfig, proto []float64, dst []float64) {
	dr, dc := 0, 0
	if cfg.Shift > 0 {
		dr = rng.Intn(2*cfg.Shift+1) - cfg.Shift
		dc = rng.Intn(2*cfg.Shift+1) - cfg.Shift
	}
	rng.FillNorm(dst)
	rowLen := cfg.W * cfg.C
	for r := 0; r < cfg.H; r++ {
		row := dst[r*rowLen : (r+1)*rowLen]
		// Elements [lo, hi) show the prototype, at src+i. The rest are off
		// the image: 0 + n·Noise, so a −0 product still rounds to +0.
		lo, hi, src := 0, 0, 0
		if sr := r + dr; sr >= 0 && sr < cfg.H {
			lo = min(max(0, -dc), cfg.W) * cfg.C
			hi = max(min(cfg.W, cfg.W-dc)*cfg.C, lo)
			src = sr*rowLen + dc*cfg.C
		}
		for i := 0; i < lo; i++ {
			row[i] = 0 + row[i]*cfg.Noise
		}
		for i := lo; i < hi; i++ {
			row[i] = proto[src+i] + row[i]*cfg.Noise
		}
		for i := hi; i < rowLen; i++ {
			row[i] = 0 + row[i]*cfg.Noise
		}
	}
}

// builtin maps every name ByName accepts to its builder and the sample
// count of the real dataset it stands in for, which bounds samples.
var builtin = map[string]struct {
	build      func(samples int, seed uint64) *Dataset
	maxSamples int
}{
	"mnist": {MNISTLike, 70000}, "mnist-like": {MNISTLike, 70000},
	"cifar10": {CIFARLike, 60000}, "cifar": {CIFARLike, 60000}, "cifar-like": {CIFARLike, 60000},
}

// Check reports, without building anything, whether ByName accepts name
// and samples: a built-in dataset, and 1 to its real size samples.
func Check(name string, samples int) error {
	b, ok := builtin[name]
	if !ok {
		return fmt.Errorf("datasets: unknown dataset %q (want mnist or cifar10)", name)
	}
	if samples < 1 || samples > b.maxSamples {
		return fmt.Errorf("datasets: %s takes 1 to %d samples, got %d", name, b.maxSamples, samples)
	}
	return nil
}

// ByName returns one of the built-in datasets ("mnist" or "cifar10", with
// the given sample count and seed), matching the dataset names used on the
// command line.
func ByName(name string, samples int, seed uint64) (*Dataset, error) {
	if err := Check(name, samples); err != nil {
		return nil, err
	}
	return builtin[name].build(samples, seed), nil
}

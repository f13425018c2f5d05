package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (SplitMix64). Every stochastic component in this repository (weight
// initialisation, dataset synthesis, random search, dropout) draws from an
// explicitly seeded RNG so that experiments are reproducible, which the
// paper's grid-search comparisons implicitly rely on.
//
// RNG is not safe for concurrent use; give each goroutine its own instance
// (see Split).
type RNG struct {
	state uint64
	// cached second normal variate for Box-Muller
	hasGauss bool
	gauss    float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent generator from the current one, suitable for
// handing to another goroutine or sub-experiment.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Randn returns a tensor with standard-normal elements.
func Randn(r *RNG, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = r.NormFloat64()
	}
	return t
}

// GlorotUniform returns a fanIn×fanOut weight matrix initialised with the
// Glorot/Xavier uniform scheme, the default used by Keras Dense layers in
// the paper's TensorFlow experiments.
func GlorotUniform(r *RNG, fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	t := New(fanIn, fanOut)
	for i := range t.data {
		t.data[i] = r.Range(-limit, limit)
	}
	return t
}

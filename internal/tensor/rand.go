package tensor

import (
	"math"
	"slices"
)

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
	// cached second normal variate of the polar method
	hasGauss bool
	gauss    float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
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

// NormFloat64 returns a standard normal variate (Marsaglia's polar
// method). Each accepted candidate yields two variates; the second is
// cached for the next call.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	u, v, s := r.polar()
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// polar draws uniform candidates (u, v) in the square (-1, 1)² until one
// falls strictly inside the unit disc, and returns it with s = u² + v².
func (r *RNG) polar() (u, v, s float64) {
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			return u, v, s
		}
	}
}

// normChunk is how many candidate pairs FillNorm draws before scaling them.
const normChunk = 256

// FillNorm fills dst with standard normal variates. It gives exactly the
// values, and leaves exactly the generator state (the cached second
// variate included), of calling NormFloat64 once per element in order.
// Per chunk, a scalar pass draws the accepted (u, v) pairs into dst, then
// each pair is multiplied by f = sqrt(-2·log(s)/s): whole groups of four
// in the AVX2 kernel polar4, the rest by NormFloat64's expression.
func (r *RNG) FillNorm(dst []float64) {
	if len(dst) > 0 && r.hasGauss {
		r.hasGauss = false
		dst[0] = r.gauss
		dst = dst[1:]
	}
	var s [normChunk]float64
	for uv := range slices.Chunk(dst[:len(dst)&^1], 2*normChunk) {
		n := len(uv) / 2
		for i := range n {
			uv[2*i], uv[2*i+1], s[i] = r.polar()
		}
		i := 0
		if useAVX2 && n >= 4 {
			i = n &^ 3
			polar4(i, &uv[0], &s[0])
		}
		for ; i < n; i++ {
			f := math.Sqrt(-2 * math.Log(s[i]) / s[i])
			uv[2*i] *= f
			uv[2*i+1] *= f
		}
	}
	if len(dst)%2 == 1 {
		dst[len(dst)-1] = r.NormFloat64()
	}
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
	r.FillNorm(t.data)
	return t
}

// GlorotUniform returns a fanIn×fanOut weight matrix initialised with the
// Glorot/Xavier uniform scheme, the default used by Keras Dense layers in
// the paper's TensorFlow experiments.
func GlorotUniform(r *RNG, fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	t := New(fanIn, fanOut)
	for i := range t.data {
		t.data[i] = -limit + 2*limit*r.Float64()
	}
	return t
}

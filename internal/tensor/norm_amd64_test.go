package tensor

import (
	"math"
	"testing"
)

// TestFillNormMatchesNormFloat64 requires FillNorm, with and without the
// AVX2 kernel, to give the bits of one NormFloat64 call per element and to
// leave the same generator state, cached second variate included, across
// chunk boundaries, odd lengths and a variate cached on entry. It toggles
// the package-level useAVX2, so it must not run in parallel with other
// tests.
func TestFillNormMatchesNormFloat64(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS without AVX2: only the scalar loop runs here")
	}
	defer func() { useAVX2 = true }()
	const chunk = 2 * normChunk // variates per chunk
	lengths := []int{0, 1, 2, 3, 7, 8, chunk - 1, chunk, chunk + 1, 784, 3072, 10001}
	for _, seed := range []uint64{1, 2, 42, 0xdeadbeef} {
		for _, n := range lengths {
			for _, cached := range []bool{false, true} {
				start := NewRNG(seed)
				if cached {
					start.NormFloat64()
				}
				ref := *start
				want := make([]float64, n)
				for i := range want {
					want[i] = ref.NormFloat64()
				}
				for _, avx := range []bool{false, true} {
					useAVX2 = avx
					r := *start
					got := make([]float64, n)
					r.FillNorm(got)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("seed %d n=%d cached=%v avx=%v: [%d] = %v, want %v", seed, n, cached, avx, i, got[i], want[i])
						}
					}
					if r.state != ref.state || r.hasGauss != ref.hasGauss || (r.hasGauss && math.Float64bits(r.gauss) != math.Float64bits(ref.gauss)) {
						t.Fatalf("seed %d n=%d cached=%v avx=%v: state %+v, want %+v", seed, n, cached, avx, r, ref)
					}
				}
			}
		}
	}
}

// TestPolarKernelMatchesMathLog feeds the AVX2 kernel over a million s in
// (0, 1) — uniform draws, every binade down to 2^-100 with the Sqrt2/2
// split point of each, and Sqrt2/2 itself with its neighbours — and
// requires f = sqrt(-2·log(s)/s) equal to math.Log's, bit for bit.
func TestPolarKernelMatchesMathLog(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS without AVX2: the kernel never runs here")
	}
	hsqrt2 := math.Float64frombits(0x3FE6A09E667F3BCD)
	s := []float64{
		math.Ldexp(1, -100), math.Nextafter(1, 0), 0.5, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0),
		hsqrt2, math.Nextafter(hsqrt2, 0), math.Nextafter(hsqrt2, 1),
	}
	for e := 0; e <= 100; e++ {
		for _, m := range []float64{hsqrt2, math.Nextafter(hsqrt2, 0), math.Nextafter(hsqrt2, 1), 0.5, math.Nextafter(1, 0)} {
			s = append(s, math.Ldexp(m, -e))
		}
	}
	r := NewRNG(7)
	for len(s) < 1<<20 {
		v := r.Float64()
		if len(s)%2 == 1 {
			v = math.Ldexp(0.5+v/2, -r.Intn(100)) // a random binade
		}
		if v > 0 {
			s = append(s, v)
		}
	}
	s = s[:len(s)&^3]
	uv := make([]float64, 2*len(s))
	for i := range s {
		uv[2*i], uv[2*i+1] = 1, -2
	}
	polar4(len(s), &uv[0], &s[0])
	for i, x := range s {
		f := math.Sqrt(-2 * math.Log(x) / x)
		if math.Float64bits(uv[2*i]) != math.Float64bits(f) || math.Float64bits(uv[2*i+1]) != math.Float64bits(-2*f) {
			t.Fatalf("s = %v (%#016x): kernel f = %v, %v; want %v, %v", x, math.Float64bits(x), uv[2*i], uv[2*i+1], f, -2*f)
		}
	}
}

package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(123)
	b := NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds coincide %d/64 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(77)
	n := 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(3)
	s := r.Split()
	// The parent and child streams should not be identical.
	same := 0
	for i := 0; i < 32; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split stream tracks parent %d/32 times", same)
	}
}

func TestRandTensorsShapeAndRange(t *testing.T) {
	r := NewRNG(10)
	if u := Randn(r, 5, 5); u.Dim(0) != 5 || u.Dim(1) != 5 {
		t.Fatalf("Randn shape = %v", u.Shape())
	}
	g := Randn(r, 1000)
	if math.Abs(g.Mean()) > 0.2 {
		t.Fatalf("Randn mean = %v", g.Mean())
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	r := NewRNG(11)
	fanIn, fanOut := 30, 20
	w := GlorotUniform(r, fanIn, fanOut)
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	if w.Max() > limit || w.Min() < -limit {
		t.Fatalf("Glorot weights exceed limit %v: [%v, %v]", limit, w.Min(), w.Max())
	}
	if w.Dim(0) != fanIn || w.Dim(1) != fanOut {
		t.Fatalf("Glorot shape = %v", w.Shape())
	}
}

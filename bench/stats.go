package main

import (
	"math"
	"sort"
	"sync"
)

// tailCandidates are the percentiles the picker may report, ascending.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile picks the highest candidate percentile that has at least
// ten samples beyond it (the choosing-metrics guide's rule); ok is false
// when even the median has fewer than ten samples above it.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailCandidates {
		// The tolerance absorbs 100×(1−0.9) = 9.999999999999998.
		if float64(n)*(100-p)/100 >= 10-1e-6 {
			pct, ok = p, true
		}
	}
	return pct, ok
}

// percentile returns the nearest-rank percentile of an ascending slice
// (NaN when empty).
func percentile(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(pct / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the interpolated middle of xs (NaN when empty); xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// dist collects latency samples from several goroutines.
type dist struct {
	mu sync.Mutex
	xs []float64
}

func (d *dist) add(x float64) {
	d.mu.Lock()
	d.xs = append(d.xs, x)
	d.mu.Unlock()
}

func (d *dist) n() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.xs)
}

func (d *dist) sorted() []float64 {
	d.mu.Lock()
	s := append([]float64(nil), d.xs...)
	d.mu.Unlock()
	sort.Float64s(s)
	return s
}

// p50 is the median of the samples, 0 when there are none: a per-layer
// metric that does not apply to a workload reads 0, never NaN.
func (d *dist) p50() float64 {
	if d.n() == 0 {
		return 0
	}
	return median(d.sorted())
}

// pct is the nearest-rank percentile, 0 when there are no samples.
func (d *dist) pct(p float64) float64 {
	s := d.sorted()
	if len(s) == 0 {
		return 0
	}
	return percentile(s, p)
}

// tail reports the picked tail percentile and its value; with fewer than
// twenty samples no percentile qualifies and it falls back to the median,
// reporting pct 50 so the reader sees which one was used.
func (d *dist) tail() (pct, value float64) {
	s := d.sorted()
	if len(s) == 0 {
		return 0, 0
	}
	p, ok := tailPercentile(len(s))
	if !ok {
		p = 50
	}
	return p, percentile(s, p)
}

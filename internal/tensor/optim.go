package tensor

import "math"

// The optimiser steps below are the element loops of nn's SGD, Adam and
// RMSprop. Where useAVX2 holds, an assembly kernel takes each slice four
// elements at a time and the Go loop takes the remainder; elsewhere the Go
// loop takes everything. A kernel repeats its Go loop operation for
// operation — the same association, a separate multiply and add (never
// FMA), and VSQRTPD/VDIVPD, which round as SQRTSD/DIVSD — so both paths
// give equal bits.

// SGDStep applies classical momentum to p: v = mom·v − lr·g, then p += v.
// v and g must be at least as long as p.
func SGDStep(p, v, g []float64, lr, mom float64) {
	v, g = v[:len(p)], g[:len(p)]
	j := 0
	if useAVX2 && len(p) >= 4 {
		j = len(p) &^ 3
		sgd4(j, &p[0], &v[0], &g[0], lr, mom)
	}
	for ; j < len(p); j++ {
		v[j] = mom*v[j] - lr*g[j]
		p[j] += v[j]
	}
}

// AdamStep applies one Adam update to p with first and second moments m and
// v: m = β1·m + (1−β1)·g, v = β2·v + (1−β2)·g·g, then
// p −= step·m / (√(v·invB2c) + eps), where the caller folds the bias
// corrections into step = lr/(1−β1ᵗ) and invB2c = 1/(1−β2ᵗ). m, v and g
// must be at least as long as p.
func AdamStep(p, m, v, g []float64, beta1, beta2, step, invB2c, eps float64) {
	m, v, g = m[:len(p)], v[:len(p)], g[:len(p)]
	c1, c2 := 1-beta1, 1-beta2
	j := 0
	if useAVX2 && len(p) >= 4 {
		j = len(p) &^ 3
		adam4(j, &p[0], &m[0], &v[0], &g[0], beta1, c1, beta2, c2, step, invB2c, eps)
	}
	for ; j < len(p); j++ {
		gj := g[j]
		mj := beta1*m[j] + c1*gj
		vj := beta2*v[j] + c2*gj*gj
		m[j] = mj
		v[j] = vj
		p[j] -= step * mj / (math.Sqrt(vj*invB2c) + eps)
	}
}

// RMSpropStep applies one RMSprop update to p with the running mean square
// c: c = ρ·c + (1−ρ)·g·g, then p −= lr·g / (√c + eps). c and g must be at
// least as long as p.
func RMSpropStep(p, c, g []float64, lr, rho, eps float64) {
	c, g = c[:len(p)], g[:len(p)]
	c1 := 1 - rho
	j := 0
	if useAVX2 && len(p) >= 4 {
		j = len(p) &^ 3
		rmsprop4(j, &p[0], &c[0], &g[0], rho, c1, lr, eps)
	}
	for ; j < len(p); j++ {
		gj := g[j]
		c[j] = rho*c[j] + c1*gj*gj
		p[j] -= lr * gj / (math.Sqrt(c[j]) + eps)
	}
}

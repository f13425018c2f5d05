package tensor

import "fmt"

// Test-only accessors and constructors: no binary indexes or builds
// tensors element by element, so these live beside the tests that do.

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match rank %d", idx, len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Full allocates a tensor filled with value v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Transpose returns the transpose of a 2-D tensor.
func (t *Tensor) Transpose() *Tensor {
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.data[c*rows+r] = t.data[r*cols+c]
		}
	}
	return out
}

// Add returns t + o element-wise; the shapes must match.
func (t *Tensor) Add(o *Tensor) *Tensor {
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] + o.data[i]
	}
	return out
}

// Len reports how many tensors are pooled.
func (p *Pool) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, list := range p.free {
		n += len(list)
	}
	return n
}

// matMul returns a×b from MatMulInto on a fresh destination, using up to
// units goroutines.
func matMul(a, b *Tensor, units int) *Tensor {
	m, _, n := mmShape(a, b)
	return MatMulInto(New(m, n), a, b, units)
}

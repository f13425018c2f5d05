package tensor

import (
	"fmt"
	"math"
)

// Add returns t + o element-wise. Shapes must match.
func (t *Tensor) Add(o *Tensor) *Tensor {
	return t.zipWith(o, func(a, b float64) float64 { return a + b })
}

// Sub returns t - o element-wise.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	return t.zipWith(o, func(a, b float64) float64 { return a - b })
}

// Mul returns the element-wise (Hadamard) product t * o.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	return t.zipWith(o, func(a, b float64) float64 { return a * b })
}

func (t *Tensor) zipWith(o *Tensor, f func(a, b float64) float64) *Tensor {
	if !sameShape(t.shape, o.shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, o.shape))
	}
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = f(t.data[i], o.data[i])
	}
	return out
}

// Scale returns t * s element-wise.
func (t *Tensor) Scale(s float64) *Tensor {
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] * s
	}
	return out
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddScalar returns t + s element-wise.
func (t *Tensor) AddScalar(s float64) *Tensor {
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] + s
	}
	return out
}

// Apply returns a new tensor with f applied to every element.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = f(t.data[i])
	}
	return out
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. It panics on empty tensors.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on empty tensors.
func (t *Tensor) Min() float64 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Norm returns the Euclidean (L2) norm of all elements.
func (t *Tensor) Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgMaxRows returns, for a 2-D tensor, the column index of the maximum in
// each row.
func (t *Tensor) ArgMaxRows() []int {
	if len(t.shape) != 2 {
		panic("tensor: ArgMaxRows requires a 2-D tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best, bi := math.Inf(-1), 0
		for c := 0; c < cols; c++ {
			if v := t.data[r*cols+c]; v > best {
				best, bi = v, c
			}
		}
		out[r] = bi
	}
	return out
}

// SumRowsInto writes the column sums of a 2-D tensor into dst (1×cols),
// overwriting it, and returns dst. Layer backward passes use it for bias
// gradients.
func (t *Tensor) SumRowsInto(dst *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SumRowsInto requires a 2-D tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	if dst.Size() != cols {
		panic(fmt.Sprintf("tensor: SumRowsInto destination size %d, want %d", dst.Size(), cols))
	}
	dd := dst.data
	for c := 0; c < cols; c++ {
		dd[c] = 0
	}
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c, v := range row {
			dd[c] += v
		}
	}
	return dst
}

// AddRowVectorInPlace adds a 1×cols row vector to every row of a 2-D tensor
// in place and returns t — the bias-add step of a layer forward pass.
func (t *Tensor) AddRowVectorInPlace(v *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: AddRowVectorInPlace requires a 2-D tensor")
	}
	cols := t.shape[1]
	if v.Size() != cols {
		panic(fmt.Sprintf("tensor: row vector size %d does not match %d columns", v.Size(), cols))
	}
	rows := t.shape[0]
	vd := v.data
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += vd[c]
		}
	}
	return t
}

// Transpose returns the transpose of a 2-D tensor.
func (t *Tensor) Transpose() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Transpose requires a 2-D tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.data[c*rows+r] = t.data[r*cols+c]
		}
	}
	return out
}

// SoftmaxRows returns a 2-D tensor whose rows are the softmax of t's rows,
// computed with the usual max-subtraction trick for numerical stability.
func (t *Tensor) SoftmaxRows() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SoftmaxRows requires a 2-D tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(rows, cols)
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		orow := out.data[r*cols : (r+1)*cols]
		for i, v := range row {
			e := math.Exp(v - m)
			orow[i] = e
			sum += e
		}
		for i := range orow {
			orow[i] /= sum
		}
	}
	return out
}

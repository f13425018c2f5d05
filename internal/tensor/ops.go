package tensor

import (
	"fmt"
	"math"
)

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

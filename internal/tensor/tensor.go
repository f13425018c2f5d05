// Package tensor implements dense numeric tensors used by the neural-network
// substrate. It provides the small set of linear-algebra operations that the
// training workloads in this repository need: row-wise softmax, argmax and
// bias operations, 2-D matrix multiplication (optionally parallel across a
// bounded number of goroutines, mirroring the "computing units" a COMPSs
// task is granted), optimiser steps, and a deterministic random number
// generator so experiments are reproducible.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major tensor of float64 values.
//
// The zero value is not useful; construct tensors with New, FromSlice
// or the random constructors in rand.go.
type Tensor struct {
	shape []int
	data  []float64
}

// New allocates a zero-filled tensor with the given shape.
// It panics if any dimension is negative or the shape is empty.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float64, n),
	}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{
		shape: append([]int(nil), shape...),
		data:  data,
	}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of the tensor with a new shape. The total number of
// elements must be unchanged. The returned tensor shares storage with t.
// A single dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / known
	}
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: shape, data: t.data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Equal reports whether t and o have the same shape and identical elements.
func (t *Tensor) Equal(o *Tensor) bool {
	if !sameShape(t.shape, o.shape) {
		return false
	}
	for i := range t.data {
		if t.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether t and o have the same shape and all elements are
// within tol of each other.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !sameShape(t.shape, o.shape) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-o.data[i]) > tol {
			return false
		}
	}
	return true
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor%v%v", t.shape, t.data)
		return b.String()
	}
	return fmt.Sprintf("Tensor%v[%d elems, first=%g]", t.shape, len(t.data), t.data[0])
}

// Package nn implements the neural-network substrate used by the HPO
// experiments: layers, losses, the three optimisers the paper's search space
// covers (SGD, Adam, RMSprop), and a minibatch training loop with per-epoch
// history and early stopping. It plays the role TensorFlow plays in the
// paper: the thing an "experiment" task trains.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Layer is a differentiable network stage. Forward consumes a batch
// (rows = samples) and Backward consumes the gradient of the loss with
// respect to the layer's output, returning the gradient with respect to its
// input and accumulating parameter gradients internally.
type Layer interface {
	// Forward computes the layer output for input x. train reports whether
	// the network is training.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward computes the input gradient given the output gradient.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned with Params.
	Grads() []*tensor.Tensor
	// Name identifies the layer type for summaries.
	Name() string
}

// Dense is a fully connected layer computing y = x·W + b. It owns
// per-batch-shape scratch for its forward output and input gradient, reused
// across training steps, and its backward pass runs the transpose-free
// MatMulTransA/TransB kernels instead of materialising Transpose copies.
type Dense struct {
	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor
	lastX  *tensor.Tensor
	units  int // goroutine budget for the matrix products

	// out/dX are the active scratch pair; scratch caches one pair per batch
	// size so alternating train/eval batches don't reallocate every epoch.
	out, dX *tensor.Tensor
	scratch map[int][2]*tensor.Tensor
}

// NewDense constructs a Dense layer with Glorot-uniform weights.
func NewDense(r *tensor.RNG, in, out int) *Dense {
	return &Dense{
		W:     tensor.GlorotUniform(r, in, out),
		B:     tensor.New(1, out),
		dW:    tensor.New(in, out),
		dB:    tensor.New(1, out),
		units: 1,
	}
}

// SetParallelism bounds the number of goroutines the layer's matrix products
// may use. This is how a task's computing-unit constraint reaches the math.
func (d *Dense) SetParallelism(units int) { d.units = units }

// Forward computes x·W + b. The returned tensor is owned by the layer and
// overwritten by the next Forward call.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.lastX = x
	batch := x.Dim(0)
	if d.out == nil || d.out.Dim(0) != batch {
		if d.scratch == nil {
			d.scratch = map[int][2]*tensor.Tensor{}
		}
		pair, ok := d.scratch[batch]
		if !ok {
			pair = [2]*tensor.Tensor{tensor.New(batch, d.W.Dim(1)), tensor.New(batch, d.W.Dim(0))}
			d.scratch[batch] = pair
		}
		d.out, d.dX = pair[0], pair[1]
	}
	tensor.MatMulInto(d.out, x, d.W, d.units)
	return d.out.AddRowVectorInPlace(d.B)
}

// Backward accumulates dW = xᵀ·grad, dB = column sums of grad, and returns
// grad·Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.BackwardParamsOnly(grad)
	return tensor.MatMulTransBInto(d.dX, grad, d.W, d.units)
}

// BackwardParamsOnly accumulates dW and dB but skips the input-gradient
// product — the model calls this when the layer sits first in the stack,
// where grad·Wᵀ would be discarded.
func (d *Dense) BackwardParamsOnly(grad *tensor.Tensor) {
	tensor.MatMulTransAInto(d.dW, d.lastX, grad, d.units)
	grad.SumRowsInto(d.dB)
}

// Params returns the weight and bias tensors.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads returns the gradients for the weight and bias tensors.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dW, d.dB} }

// Name implements Layer.
func (d *Dense) Name() string {
	return fmt.Sprintf("Dense(%d→%d)", d.W.Dim(0), d.W.Dim(1))
}

// ReLU applies max(0, x) element-wise. Mask, output and gradient buffers are
// owned by the layer, cached per input shape, and reused across steps.
type ReLU struct {
	mask, out, dX *tensor.Tensor
	scratch       map[int][3]*tensor.Tensor
}

// NewReLU constructs a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer. The returned tensor is owned by the layer and
// overwritten by the next Forward call.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if l.out == nil || !shapeEq(l.out, x) {
		if l.scratch == nil {
			l.scratch = map[int][3]*tensor.Tensor{}
		}
		set, ok := l.scratch[x.Dim(0)]
		if !ok || !shapeEq(set[0], x) {
			set = [3]*tensor.Tensor{tensor.New(x.Shape()...), tensor.New(x.Shape()...), tensor.New(x.Shape()...)}
			l.scratch[x.Dim(0)] = set
		}
		l.mask, l.out, l.dX = set[0], set[1], set[2]
	}
	xd, md, od := x.Data(), l.mask.Data(), l.out.Data()
	for i, v := range xd {
		if v > 0 {
			md[i] = 1
			od[i] = v
		} else {
			md[i] = 0
			od[i] = 0
		}
	}
	return l.out
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gd, md, od := grad.Data(), l.mask.Data(), l.dX.Data()
	for i := range gd {
		od[i] = gd[i] * md[i]
	}
	return l.dX
}

// Params implements Layer.
func (l *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (l *ReLU) Grads() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *ReLU) Name() string { return "ReLU" }

// shapeEq reports whether two tensors have identical shapes (used by layers
// to decide when per-batch scratch must be resized).
func shapeEq(a, b *tensor.Tensor) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := 0; i < a.Rank(); i++ {
		if a.Dim(i) != b.Dim(i) {
			return false
		}
	}
	return true
}

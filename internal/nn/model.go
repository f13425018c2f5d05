package nn

import "repro/internal/tensor"

// Sequential is a feed-forward stack of layers trained with softmax
// cross-entropy, the model shape used by the paper's MNIST and CIFAR-10
// experiments.
type Sequential struct {
	Layers []Layer
	loss   SoftmaxCrossEntropy
	units  int
}

// NewSequential builds a model from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers, units: 1}
}

// NewMLP builds a multi-layer perceptron: in → hidden... → classes, with
// ReLU between Dense layers. It is the standard model for the synthetic
// MNIST/CIFAR workloads.
func NewMLP(r *tensor.RNG, in int, hidden []int, classes int) *Sequential {
	var layers []Layer
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(r, prev, h), NewReLU())
		prev = h
	}
	layers = append(layers, NewDense(r, prev, classes))
	return NewSequential(layers...)
}

// SetParallelism bounds the goroutine budget of every layer that supports
// internal parallelism (Dense, Conv2D — anything exposing a
// SetParallelism method). It corresponds to the ComputingUnits constraint a
// COMPSs task is granted: "if a task has built-in parallelism, PyCOMPSs will
// not interfere with this" (paper §3); plumbing it here, once, keeps every
// layer's kernels bounded by the same grant.
func (m *Sequential) SetParallelism(units int) {
	if units < 1 {
		units = 1
	}
	m.units = units
	for _, l := range m.Layers {
		if p, ok := l.(interface{ SetParallelism(int) }); ok {
			p.SetParallelism(units)
		}
	}
}

// Forward runs the full stack on a batch.
func (m *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// paramsOnlyBackward is implemented by layers that can accumulate parameter
// gradients without computing the gradient w.r.t. their input.
type paramsOnlyBackward interface {
	BackwardParamsOnly(grad *tensor.Tensor)
}

// Backward propagates the loss gradient through the stack. The first layer's
// input gradient is never consumed (there is no layer below it), so when
// that layer supports it the model skips the input-gradient product — for a
// Dense or Conv2D input layer that is one of its two large backward GEMMs.
func (m *Sequential) Backward(grad *tensor.Tensor) {
	for i := len(m.Layers) - 1; i > 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	if len(m.Layers) == 0 {
		return
	}
	if po, ok := m.Layers[0].(paramsOnlyBackward); ok {
		po.BackwardParamsOnly(grad)
		return
	}
	m.Layers[0].Backward(grad)
}

// Params collects every trainable tensor in the model.
func (m *Sequential) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Grads collects gradients aligned with Params.
func (m *Sequential) Grads() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range m.Layers {
		out = append(out, l.Grads()...)
	}
	return out
}

// Evaluate returns the mean loss and accuracy on a labelled set.
func (m *Sequential) Evaluate(x *tensor.Tensor, labels []int) (loss, acc float64) {
	logits := m.Forward(x, false)
	loss, _ = m.loss.Loss(logits, labels)
	return loss, Accuracy(logits, labels)
}

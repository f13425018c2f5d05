package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters from gradients. The three implementations
// correspond exactly to the "optimizer" axis of the paper's search space
// (Listing 1: Adam, SGD, RMSprop).
type Optimizer interface {
	// Step applies one update. params and grads are aligned slices collected
	// from every layer in the model.
	Step(params, grads []*tensor.Tensor)
	// Name returns the canonical optimiser name as it appears in configs.
	Name() string
}

// NewOptimizer constructs an optimiser by its config-file name
// ("SGD", "Adam", "RMSprop"; case-sensitive, as in the paper's JSON).
// lr <= 0 selects a per-optimiser default matching Keras defaults.
func NewOptimizer(name string, lr float64) (Optimizer, error) {
	switch name {
	case "SGD":
		if lr <= 0 {
			lr = 0.01
		}
		return &SGD{LR: lr, Momentum: 0.9}, nil
	case "Adam":
		if lr <= 0 {
			lr = 0.001
		}
		return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}, nil
	case "RMSprop":
		if lr <= 0 {
			lr = 0.001
		}
		return &RMSprop{LR: lr, Rho: 0.9, Eps: 1e-8}, nil
	default:
		return nil, fmt.Errorf("nn: unknown optimizer %q (want SGD, Adam or RMSprop)", name)
	}
}

// SGD is stochastic gradient descent with classical momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity []*tensor.Tensor
}

// Step implements Optimizer.
func (o *SGD) Step(params, grads []*tensor.Tensor) {
	if o.velocity == nil {
		o.velocity = zerosLike(params)
	}
	for i, p := range params {
		tensor.SGDStep(p.Data(), o.velocity[i].Data(), grads[i].Data(), o.LR, o.Momentum)
	}
}

// Name implements Optimizer.
func (o *SGD) Name() string { return "SGD" }

// Adam is the Adam optimiser (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	m, v                  []*tensor.Tensor
	t                     int
}

// Step implements Optimizer.
func (o *Adam) Step(params, grads []*tensor.Tensor) {
	if o.m == nil {
		o.m = zerosLike(params)
		o.v = zerosLike(params)
	}
	o.t++
	// Hoist every loop-invariant division out of the element loop: the
	// update needs one sqrt and one divide per element, not three divides.
	invB1c := 1 / (1 - math.Pow(o.Beta1, float64(o.t)))
	invB2c := 1 / (1 - math.Pow(o.Beta2, float64(o.t)))
	step := o.LR * invB1c
	for i, p := range params {
		tensor.AdamStep(p.Data(), o.m[i].Data(), o.v[i].Data(), grads[i].Data(),
			o.Beta1, o.Beta2, step, invB2c, o.Eps)
	}
}

// Name implements Optimizer.
func (o *Adam) Name() string { return "Adam" }

// RMSprop is the RMSprop optimiser (Tieleman & Hinton).
type RMSprop struct {
	LR, Rho, Eps float64
	cache        []*tensor.Tensor
}

// Step implements Optimizer.
func (o *RMSprop) Step(params, grads []*tensor.Tensor) {
	if o.cache == nil {
		o.cache = zerosLike(params)
	}
	for i, p := range params {
		tensor.RMSpropStep(p.Data(), o.cache[i].Data(), grads[i].Data(), o.LR, o.Rho, o.Eps)
	}
}

// Name implements Optimizer.
func (o *RMSprop) Name() string { return "RMSprop" }

func zerosLike(params []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		out[i] = tensor.New(p.Shape()...)
	}
	return out
}

package nn

import (
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy fuses the final softmax with categorical cross-entropy,
// the standard output stage for the 10-class MNIST/CIFAR models in the paper.
// Fusing keeps the backward pass numerically simple: grad = (probs - onehot)/N.
type SoftmaxCrossEntropy struct{}

// Loss returns the mean cross-entropy between logits and integer labels, and
// the gradient with respect to the logits.
func (SoftmaxCrossEntropy) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	rows, cols := logits.Dim(0), logits.Dim(1)
	if rows != len(labels) {
		panic("nn: label count does not match batch size")
	}
	probs := logits.SoftmaxRows()
	loss := 0.0
	grad := probs.Clone()
	gd := grad.Data()
	pd := probs.Data()
	for r := 0; r < rows; r++ {
		y := labels[r]
		p := pd[r*cols+y]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		gd[r*cols+y] -= 1
	}
	inv := 1.0 / float64(rows)
	for i := range gd {
		gd[i] *= inv
	}
	return loss / float64(rows), grad
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	pred := logits.ArgMaxRows()
	hit := 0
	for i, p := range pred {
		if p == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(labels))
}

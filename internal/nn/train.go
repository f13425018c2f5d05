package nn

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
)

// History records per-epoch metrics, mirroring the Keras history object the
// paper's experiments return from each training and later plot (Figs. 7-8).
type History struct {
	TrainLoss []float64
	TrainAcc  []float64
	ValLoss   []float64
	ValAcc    []float64
	// Epochs actually run (may be fewer than requested with early stopping).
	Epochs int
	// Stopped reports whether a callback ended training early.
	Stopped bool
	// StopReason describes why training ended early, if it did.
	StopReason string
}

// Final returns the last validation accuracy, or 0 if no epoch ran.
func (h *History) Final() float64 {
	if len(h.ValAcc) == 0 {
		return 0
	}
	return h.ValAcc[len(h.ValAcc)-1]
}

// BestValAcc returns the best validation accuracy across epochs.
func (h *History) BestValAcc() float64 {
	best := 0.0
	for _, v := range h.ValAcc {
		if v > best {
			best = v
		}
	}
	return best
}

// FitConfig controls a training run. The fields map one-to-one onto the
// hyperparameters in the paper's Listing 1 config file.
type FitConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	// Shuffle controls minibatch shuffling between epochs.
	Shuffle bool
	// RNG drives shuffling; required when Shuffle is true.
	RNG *tensor.RNG
	// Callbacks run after every epoch; any returning an error stops training.
	Callbacks []Callback
	// Pool, when set, recycles per-batch intermediate tensors (the
	// odd-sized tail-batch buffer) instead of allocating them each epoch.
	// Callers sharing one Pool across sequential Fit calls amortise the
	// buffers across trials; nil keeps plain allocation.
	Pool *tensor.Pool
}

// Callback observes training after each epoch. Returning a non-nil error
// stops training with History.Stopped = true; the error text becomes the
// StopReason (sentinel ErrStopTraining is conventional).
type Callback interface {
	OnEpochEnd(epoch int, h *History) error
}

// ErrStopTraining is the conventional sentinel callbacks wrap to request a
// clean early stop.
var ErrStopTraining = errors.New("nn: stop training")

// EarlyStopping stops when the monitored validation accuracy has not
// improved by MinDelta for Patience consecutive epochs — the facility the
// paper calls "of paramount significance" for MNIST-style workloads (§6.2).
type EarlyStopping struct {
	Patience int
	MinDelta float64
	best     float64
	bad      int
}

// OnEpochEnd implements Callback.
func (e *EarlyStopping) OnEpochEnd(epoch int, h *History) error {
	cur := h.ValAcc[len(h.ValAcc)-1]
	if cur > e.best+e.MinDelta {
		e.best = cur
		e.bad = 0
		return nil
	}
	e.bad++
	if e.bad >= e.Patience {
		return fmt.Errorf("early stopping: no val_acc improvement > %v for %d epochs: %w",
			e.MinDelta, e.Patience, ErrStopTraining)
	}
	return nil
}

// TargetAccuracy stops as soon as validation accuracy reaches Target, the
// "stop when one task achieves a specified accuracy" behaviour from §6.1.
type TargetAccuracy struct {
	Target float64
}

// OnEpochEnd implements Callback.
func (t *TargetAccuracy) OnEpochEnd(epoch int, h *History) error {
	if h.ValAcc[len(h.ValAcc)-1] >= t.Target {
		return fmt.Errorf("target accuracy %.3f reached at epoch %d: %w", t.Target, epoch, ErrStopTraining)
	}
	return nil
}

// EpochReporter forwards per-epoch validation accuracy to a function, used
// by the HPO layer to stream progress to the study dashboard.
type EpochReporter struct {
	Report func(epoch int, valLoss, valAcc float64)
}

// OnEpochEnd implements Callback.
func (r *EpochReporter) OnEpochEnd(epoch int, h *History) error {
	if r.Report != nil {
		r.Report(epoch, h.ValLoss[len(h.ValLoss)-1], h.ValAcc[len(h.ValAcc)-1])
	}
	return nil
}

// Fit trains the model on (x, y) and evaluates on (valX, valY) after every
// epoch. It returns the history; it never returns an error for a callback
// stop (that is recorded in the history instead).
func (m *Sequential) Fit(x *tensor.Tensor, y []int, valX *tensor.Tensor, valY []int, cfg FitConfig) (*History, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("nn: Fit requires Epochs > 0, got %d", cfg.Epochs)
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("nn: Fit requires BatchSize > 0, got %d", cfg.BatchSize)
	}
	if cfg.Optimizer == nil {
		return nil, errors.New("nn: Fit requires an Optimizer")
	}
	n := x.Dim(0)
	if n != len(y) {
		return nil, fmt.Errorf("nn: %d samples but %d labels", n, len(y))
	}
	if cfg.Shuffle && cfg.RNG == nil {
		return nil, errors.New("nn: Shuffle requires an RNG")
	}

	h := &History{}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	cols := x.Dim(1)
	batchX := tensor.New(cfg.BatchSize, cols)
	labels := make([]int, cfg.BatchSize)
	// Every layer hands out the same parameter and gradient tensors for its
	// whole life, so one collection serves every batch.
	params, grads := m.Params(), m.Grads()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Shuffle {
			order = cfg.RNG.Perm(n)
		}
		epochLoss, epochAcc := 0.0, 0.0
		batches := 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			bs := end - start
			var bx *tensor.Tensor
			tail := bs != cfg.BatchSize
			if tail {
				bx = cfg.Pool.Get(bs, cols)
			} else {
				bx = batchX
			}
			by := labels[:bs]
			gather(x, order[start:end], bx)
			for i, idx := range order[start:end] {
				by[i] = y[idx]
			}

			logits := m.Forward(bx, true)
			loss, grad := m.loss.Loss(logits, by)
			m.Backward(grad)
			cfg.Optimizer.Step(params, grads)
			if tail {
				cfg.Pool.Put(bx)
			}

			epochLoss += loss
			epochAcc += Accuracy(logits, by)
			batches++
		}
		h.TrainLoss = append(h.TrainLoss, epochLoss/float64(batches))
		h.TrainAcc = append(h.TrainAcc, epochAcc/float64(batches))

		vl, va := m.Evaluate(valX, valY)
		h.ValLoss = append(h.ValLoss, vl)
		h.ValAcc = append(h.ValAcc, va)
		h.Epochs = epoch + 1

		for _, cb := range cfg.Callbacks {
			if err := cb.OnEpochEnd(epoch, h); err != nil {
				if errors.Is(err, ErrStopTraining) {
					h.Stopped = true
					h.StopReason = err.Error()
					return h, nil
				}
				return h, err
			}
		}
	}
	return h, nil
}

// gather copies the selected rows of src into dst (dst has len(rows) rows).
func gather(src *tensor.Tensor, rows []int, dst *tensor.Tensor) {
	cols := src.Dim(1)
	sd, dd := src.Data(), dst.Data()
	for i, r := range rows {
		copy(dd[i*cols:(i+1)*cols], sd[r*cols:(r+1)*cols])
	}
}

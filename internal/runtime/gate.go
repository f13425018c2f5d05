package runtime

import "sync"

// BudgetGate coordinates a task's epoch budget with its master: the
// continuation primitive behind rung-driven successive halving. A task that
// was submitted with a small initial budget activates the gate
// (SetLimit) and consults Allow at each epoch boundary; once it has
// consumed its budget, Allow blocks until the master either raises the
// ceiling (Extend — the task resumes training the same in-memory model, no
// re-submission) or stops the task (Stop, delivered alongside a cooperative
// cancel). A gate whose SetLimit was never called is inert: Allow always
// returns true immediately, so plain tasks pay nothing.
//
// Backends create one gate per attempt; an extension aimed at a dead
// attempt never leaks into its retry (the master re-issues grants as the
// fresh attempt streams its reports).
type BudgetGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	base    int // initial budget set by the task body; 0 = inert gate
	granted int // highest master-granted ceiling
	stopped bool
}

// NewBudgetGate builds an inert gate (no limit until SetLimit).
func NewBudgetGate() *BudgetGate {
	g := &BudgetGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// SetLimit activates the gate with the task's initial epoch budget. Called
// once by the task body before training; grants received earlier (an extend
// racing the submit) are preserved.
func (g *BudgetGate) SetLimit(n int) {
	if n <= 0 {
		return
	}
	g.mu.Lock()
	g.base = n
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Extend raises the ceiling to n epochs (monotonic: a stale lower grant
// never shrinks it) and wakes a task paused at the gate.
func (g *BudgetGate) Extend(n int) {
	g.mu.Lock()
	if n > g.granted {
		g.granted = n
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Stop unblocks a paused task with a refusal; its next Allow returns false
// and the task is expected to return early with a partial result. Delivered
// together with the cooperative cancel signal.
func (g *BudgetGate) Stop() {
	g.mu.Lock()
	g.stopped = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *BudgetGate) limitLocked() int {
	if g.base == 0 {
		return 0
	}
	if g.granted > g.base {
		return g.granted
	}
	return g.base
}

// Allow reports whether the task may train past epochsDone epochs. It
// returns true immediately while the gate is inert or under its limit,
// blocks at the limit until the master extends or stops the task, and
// returns false once stopped.
func (g *BudgetGate) Allow(epochsDone int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.stopped {
			return false
		}
		if g.base == 0 || epochsDone < g.limitLocked() {
			return true
		}
		g.cond.Wait()
	}
}

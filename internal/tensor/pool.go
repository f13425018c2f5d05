package tensor

import "sync"

// Pool is an opt-in free list of tensor backing arrays, keyed by element
// count. Training loops allocate the same handful of intermediate shapes
// every minibatch (tail-batch buffers, temporary gradients); routing those
// through a Pool keeps steady-state epochs allocation-free without imposing
// ownership rules on code that doesn't care — a nil *Pool is valid and
// degrades to plain allocation.
//
// Get returns a tensor whose contents are unspecified (callers must fully
// overwrite or Zero it); Put recycles a tensor's storage. The caller must
// not use a tensor (or any view sharing its storage) after Put — the usual
// free-list contract. Pool is safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free map[int][]*Tensor
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{free: map[int][]*Tensor{}} }

// Get returns a tensor of the given shape, reusing pooled storage of the
// same element count when available. Contents are unspecified unless the
// tensor is freshly allocated. A nil pool allocates.
func (p *Pool) Get(shape ...int) *Tensor {
	if p == nil {
		return New(shape...)
	}
	n := checkShape(shape)
	p.mu.Lock()
	list := p.free[n]
	if len(list) == 0 {
		p.mu.Unlock()
		return New(shape...)
	}
	t := list[len(list)-1]
	p.free[n] = list[:len(list)-1]
	p.mu.Unlock()
	t.shape = append(t.shape[:0], shape...)
	return t
}

// Put returns tensors to the pool for reuse. Nil tensors and nil pools are
// ignored.
func (p *Pool) Put(ts ...*Tensor) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for _, t := range ts {
		if t == nil {
			continue
		}
		n := len(t.data)
		p.free[n] = append(p.free[n], t)
	}
	p.mu.Unlock()
}

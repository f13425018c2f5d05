package hpo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// TenantLimits is one tenant's admission-control envelope. Zero values
// mean unlimited, so the single-tenant daemon (no registry) keeps its
// historical behaviour through the same code path.
type TenantLimits struct {
	// MaxConcurrent bounds the tenant's studies admitted at once — waiting
	// in the admission queue and executing both count; the slot frees when
	// the study's run finishes (Release).
	MaxConcurrent int
	// MaxTotalEpochs is the tenant's lifetime training-epoch budget across
	// all its studies, checked against journal-derived usage at admission
	// time (a study already admitted runs to completion even if it crosses
	// the budget mid-flight).
	MaxTotalEpochs int
	// MaxSubscribers caps the tenant's concurrently connected SSE
	// event-stream subscribers (enforced at the HTTP layer, carried here
	// so the registry stays the single source of quota truth).
	MaxSubscribers int
	// Weight is the tenant's fair-share weight in the admission order
	// (default 1; a weight-2 tenant is granted twice as often under
	// contention).
	Weight float64
}

// admission ticket states.
const (
	admWaiting = iota
	admGranted
)

// admTicket is one study's reservation in the waiting room.
type admTicket struct {
	tenant   string
	id       string
	enqueued time.Time
	granted  chan struct{} // closed on grant or abort
	err      error         // set before close when aborted
	state    int
}

// AdmissionQueue is the runner's waiting room: a bounded, quota-checked,
// weighted-fair admission gate in front of study execution. Reserve
// admits a study into the room (or rejects it with a typed error), Await
// blocks the study's worker until the queue grants it one of capacity
// execution slots, and Release returns the slot.
//
// Fairness uses stride scheduling: each grant advances the tenant's pass
// by 1/weight and the next grant goes to the waiting tenant with the
// smallest pass, so a burst from one tenant interleaves with — instead of
// starving — every other tenant's submissions. A tenant re-entering the
// queue has its pass clamped up to the queue's virtual time, so idling
// never banks credit.
type AdmissionQueue struct {
	mu       sync.Mutex
	capacity int
	// maxDepth bounds studies waiting (admitted but not yet granted);
	// 0 = unbounded (the pre-tenancy daemon behaviour).
	maxDepth int
	// limits resolves a tenant's quota envelope; nil = no limits.
	limits func(tenant string) TenantLimits
	// epochs resolves a tenant's journal-derived epoch usage; nil
	// disables the total-epoch budget check.
	epochs func(tenant string) int

	running  int
	waiting  int
	inflight map[string]int          // per tenant: waiting + granted
	queues   map[string][]*admTicket // per tenant, FIFO
	entries  map[string]*admTicket   // by study id
	pass     map[string]float64
	vtime    float64
	// roomFree is closed-and-replaced whenever waiting shrinks, waking
	// blocked ReserveWait callers.
	roomFree chan struct{}
	closed   bool
}

// NewAdmissionQueue builds a queue granting at most capacity concurrent
// executions (minimum 1).
func NewAdmissionQueue(capacity int) *AdmissionQueue {
	if capacity < 1 {
		capacity = 1
	}
	q := &AdmissionQueue{
		capacity: capacity,
		inflight: make(map[string]int),
		queues:   make(map[string][]*admTicket),
		entries:  make(map[string]*admTicket),
		pass:     make(map[string]float64),
		roomFree: make(chan struct{}),
	}
	registerAdmissionScrape(q)
	return q
}

// SetMaxDepth bounds the waiting room (0 = unbounded). Configure before
// serving traffic.
func (q *AdmissionQueue) SetMaxDepth(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.maxDepth = n
}

// SetLimits installs the tenant quota resolver. Configure before serving
// traffic.
func (q *AdmissionQueue) SetLimits(fn func(tenant string) TenantLimits) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.limits = fn
}

// SetEpochUsage installs the tenant epoch-usage resolver backing the
// total-epoch budget check. Configure before serving traffic.
func (q *AdmissionQueue) SetEpochUsage(fn func(tenant string) int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.epochs = fn
}

// Reserve admits study id for tenant into the waiting room, without
// blocking. It returns nil on admission, ErrAlreadyAdmitted when id
// already holds a reservation (waiting or granted), a *QuotaError wrapping
// ErrQuotaExceeded when the tenant is at quota, or ErrBackpressure when
// the waiting room is full.
func (q *AdmissionQueue) Reserve(tenant, id string) error {
	q.mu.Lock()
	err := q.reserveLocked(tenant, id, false)
	q.mu.Unlock()
	if err != nil {
		countRejection(tenant, err)
	}
	return err
}

// ReserveForced admits a study bypassing quota and depth checks — the
// restart path: studies the journal recorded as queued or running were
// already admitted once and must re-enter the room unconditionally.
func (q *AdmissionQueue) ReserveForced(tenant, id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.reserveLocked(tenant, id, true)
}

// ReserveWait is Reserve that blocks while the waiting room is full,
// until space frees or ctx expires. A deadline expiry returns
// ErrBackpressureTimeout; quota rejections return immediately.
func (q *AdmissionQueue) ReserveWait(ctx context.Context, tenant, id string) error {
	for {
		q.mu.Lock()
		err := q.reserveLocked(tenant, id, false)
		room := q.roomFree
		q.mu.Unlock()
		if err == nil || !errors.Is(err, ErrBackpressure) {
			if err != nil {
				countRejection(tenant, err)
			}
			return err
		}
		select {
		case <-ctx.Done():
			err := ctx.Err()
			if errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("%w (tenant %q)", ErrBackpressureTimeout, tenant)
			}
			countRejection(tenant, err)
			return err
		case <-room:
		}
	}
}

// reserveLocked is the admission check + enqueue. Callers hold q.mu. A
// duplicate id is reported, not absorbed, so the caller decides "already
// queued or running" atomically with the reservation.
func (q *AdmissionQueue) reserveLocked(tenant, id string, forced bool) error {
	if q.closed {
		return fmt.Errorf("%w: admission queue shut down", ErrAdmissionAborted)
	}
	if _, ok := q.entries[id]; ok {
		return fmt.Errorf("%w: study %q", ErrAlreadyAdmitted, id)
	}
	if !forced {
		var lim TenantLimits
		if q.limits != nil {
			lim = q.limits(tenant)
		}
		if lim.MaxConcurrent > 0 && q.inflight[tenant] >= lim.MaxConcurrent {
			return &QuotaError{Tenant: tenant, Resource: "concurrent_studies",
				Used: q.inflight[tenant], Limit: lim.MaxConcurrent}
		}
		if lim.MaxTotalEpochs > 0 && q.epochs != nil {
			if used := q.epochs(tenant); used >= lim.MaxTotalEpochs {
				return &QuotaError{Tenant: tenant, Resource: "total_epochs",
					Used: used, Limit: lim.MaxTotalEpochs}
			}
		}
		if q.maxDepth > 0 && q.waiting >= q.maxDepth {
			return fmt.Errorf("%w: %d studies already waiting (max %d)",
				ErrBackpressure, q.waiting, q.maxDepth)
		}
	}
	tk := &admTicket{tenant: tenant, id: id, enqueued: time.Now(), granted: make(chan struct{})}
	if len(q.queues[tenant]) == 0 && q.pass[tenant] < q.vtime {
		// Re-activation: an idle tenant resumes at the current virtual
		// time instead of cashing in banked credit.
		q.pass[tenant] = q.vtime
	}
	q.queues[tenant] = append(q.queues[tenant], tk)
	q.entries[id] = tk
	q.setInflightLocked(tenant, q.inflight[tenant]+1)
	q.waiting++
	q.grantLocked()
	obsAdmissionDepth.Set(float64(q.waiting))
	return nil
}

// grantLocked fills free execution slots from the waiting queues in
// stride order: smallest pass first, ties broken by tenant id (then FIFO
// within a tenant). Callers hold q.mu.
func (q *AdmissionQueue) grantLocked() {
	for q.running < q.capacity {
		// The default tenant's id is "" (single-token mode), so an explicit
		// found flag — not the empty string — marks "no waiters".
		chosen, found := "", false
		best := math.Inf(1)
		for tenant, queue := range q.queues {
			if len(queue) == 0 {
				continue
			}
			p := q.pass[tenant]
			if !found || p < best || (p == best && tenant < chosen) {
				best, chosen, found = p, tenant, true
			}
		}
		if !found {
			break
		}
		queue := q.queues[chosen]
		tk := queue[0]
		if len(queue) == 1 {
			delete(q.queues, chosen)
		} else {
			q.queues[chosen] = queue[1:]
		}
		q.waiting--
		q.vtime = q.pass[chosen]
		weight := 1.0
		if q.limits != nil {
			if w := q.limits(chosen).Weight; w > 0 {
				weight = w
			}
		}
		q.pass[chosen] += 1 / weight
		q.running++
		tk.state = admGranted
		close(tk.granted)
		obsTenantAdmitted.With(tenantLabel(chosen)).Inc()
		q.signalRoomLocked()
	}
	obsAdmissionDepth.Set(float64(q.waiting))
}

// Await blocks until the study's reservation is granted an execution slot
// and returns nil, or returns the abort error (ErrAdmissionAborted) when
// the reservation was withdrawn first. Awaiting an id with no live
// reservation is an abort.
func (q *AdmissionQueue) Await(id string) error {
	q.mu.Lock()
	tk := q.entries[id]
	q.mu.Unlock()
	if tk == nil {
		return fmt.Errorf("%w: no reservation for study %q", ErrAdmissionAborted, id)
	}
	<-tk.granted
	return tk.err
}

// Release returns a study's slot (or withdraws its waiting reservation on
// an error path) and grants the next waiter. Safe to call for unknown
// ids.
func (q *AdmissionQueue) Release(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	tk := q.entries[id]
	if tk == nil {
		return
	}
	delete(q.entries, id)
	q.setInflightLocked(tk.tenant, q.inflight[tk.tenant]-1)
	switch tk.state {
	case admGranted:
		q.running--
	case admWaiting:
		q.dropWaitingLocked(tk)
	}
	q.grantLocked()
}

// Abort withdraws a still-waiting reservation (study canceled before its
// grant); its Await returns ErrAdmissionAborted. Granted reservations are
// untouched — it reports whether it acted.
func (q *AdmissionQueue) Abort(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	tk := q.entries[id]
	if tk == nil || tk.state != admWaiting {
		return false
	}
	q.abortLocked(tk)
	return true
}

// Shutdown aborts every waiting reservation (their journaled queued state
// resumes them on the next boot) so a draining runner never waits on
// studies that will not be granted. Further reservations fail.
func (q *AdmissionQueue) Shutdown() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for _, tk := range q.entries {
		if tk.state == admWaiting {
			q.abortLocked(tk)
		}
	}
}

// abortLocked removes a waiting ticket and wakes its Await with
// ErrAdmissionAborted. Callers hold q.mu.
func (q *AdmissionQueue) abortLocked(tk *admTicket) {
	delete(q.entries, tk.id)
	q.setInflightLocked(tk.tenant, q.inflight[tk.tenant]-1)
	q.dropWaitingLocked(tk)
	tk.err = ErrAdmissionAborted
	close(tk.granted)
	q.grantLocked()
}

// dropWaitingLocked unlinks a waiting ticket from its tenant queue.
// Callers hold q.mu.
func (q *AdmissionQueue) dropWaitingLocked(tk *admTicket) {
	queue := q.queues[tk.tenant]
	for i, cand := range queue {
		if cand == tk {
			queue = append(queue[:i:i], queue[i+1:]...)
			break
		}
	}
	if len(queue) == 0 {
		delete(q.queues, tk.tenant)
	} else {
		q.queues[tk.tenant] = queue
	}
	q.waiting--
	obsAdmissionDepth.Set(float64(q.waiting))
	q.signalRoomLocked()
}

// setInflightLocked updates a tenant's inflight count and its gauge.
// Callers hold q.mu.
func (q *AdmissionQueue) setInflightLocked(tenant string, n int) {
	if n <= 0 {
		delete(q.inflight, tenant)
		n = 0
	} else {
		q.inflight[tenant] = n
	}
	obsTenantInflight.With(tenantLabel(tenant)).Set(float64(n))
}

// signalRoomLocked wakes every blocked ReserveWait. Callers hold q.mu.
func (q *AdmissionQueue) signalRoomLocked() {
	close(q.roomFree)
	q.roomFree = make(chan struct{})
}

// State reports whether study id holds a reservation (ok) and, if so,
// whether it has been granted an execution slot. The entries map is the
// runner's only record of in-flight studies.
func (q *AdmissionQueue) State(id string) (granted, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	tk := q.entries[id]
	if tk == nil {
		return false, false
	}
	return tk.state == admGranted, true
}

// Depth reports how many admitted studies are waiting for a slot.
func (q *AdmissionQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiting
}

// Granted reports how many studies currently hold execution slots.
func (q *AdmissionQueue) Granted() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running
}

// OldestWait reports how long the longest-waiting study has been queued
// (zero when the room is empty) — the alerting signal for a stuck or
// saturated runner.
func (q *AdmissionQueue) OldestWait() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	var oldest time.Time
	for _, queue := range q.queues {
		for _, tk := range queue {
			if oldest.IsZero() || tk.enqueued.Before(oldest) {
				oldest = tk.enqueued
			}
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}

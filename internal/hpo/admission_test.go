package hpo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drainGrants runs one awaiter goroutine per reserved id and returns a
// channel receiving ids in grant order; each grant holds its slot until
// proceed is signalled, so with capacity 1 the receive order IS the
// queue's admission order.
func drainGrants(q *AdmissionQueue, ids []string, proceed chan struct{}) chan string {
	order := make(chan string, len(ids))
	for _, id := range ids {
		go func(id string) {
			if q.Await(id) != nil {
				return
			}
			order <- id
			<-proceed
			q.Release(id)
		}(id)
	}
	return order
}

// TestAdmissionFairShareInterleavesTenants pins the weighted fair-share
// contract: tenant a's four-study burst submitted entirely before tenant
// b's must not be granted ahead of it. A FCFS admission order
// (a1 a2 a3 a4 b1 …) fails this test.
func TestAdmissionFairShareInterleavesTenants(t *testing.T) {
	q := NewAdmissionQueue(1)
	// Hold the only slot so every subsequent reservation queues.
	if err := q.Reserve("z", "z-seed"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 1; i <= 4; i++ {
		ids = append(ids, fmt.Sprintf("a-%d", i))
	}
	for i := 1; i <= 4; i++ {
		ids = append(ids, fmt.Sprintf("b-%d", i))
	}
	for _, id := range ids {
		if err := q.Reserve(id[:1], id); err != nil {
			t.Fatalf("reserve %s: %v", id, err)
		}
	}
	proceed := make(chan struct{})
	order := drainGrants(q, ids, proceed)
	q.Release("z-seed")

	want := []string{"a-1", "b-1", "a-2", "b-2", "a-3", "b-3", "a-4", "b-4"}
	for i, w := range want {
		select {
		case got := <-order:
			if got != w {
				t.Fatalf("grant %d = %s, want %s (fair-share must interleave tenants, not FCFS)", i, got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("grant %d never arrived (want %s)", i, w)
		}
		proceed <- struct{}{}
	}
}

// TestAdmissionWeightedShares gives tenant a twice tenant b's weight and
// expects two a-grants per b-grant under contention.
func TestAdmissionWeightedShares(t *testing.T) {
	q := NewAdmissionQueue(1)
	q.SetLimits(func(tenant string) TenantLimits {
		if tenant == "a" {
			return TenantLimits{Weight: 2}
		}
		return TenantLimits{Weight: 1}
	})
	if err := q.Reserve("z", "z-seed"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 1; i <= 4; i++ {
		ids = append(ids, fmt.Sprintf("a-%d", i))
	}
	for i := 1; i <= 2; i++ {
		ids = append(ids, fmt.Sprintf("b-%d", i))
	}
	for _, id := range ids {
		if err := q.Reserve(id[:1], id); err != nil {
			t.Fatalf("reserve %s: %v", id, err)
		}
	}
	proceed := make(chan struct{})
	order := drainGrants(q, ids, proceed)
	q.Release("z-seed")

	var got []string
	for range ids {
		select {
		case id := <-order:
			got = append(got, id)
		case <-time.After(5 * time.Second):
			t.Fatalf("grants stalled after %v", got)
		}
		proceed <- struct{}{}
	}
	// Stride with weights 2:1 → a1 b1 a2 a3 b2 a4.
	want := []string{"a-1", "b-1", "a-2", "a-3", "b-2", "a-4"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weighted grant order = %v, want %v", got, want)
		}
	}
}

// TestAdmissionQuotaNeverOversubscribes hammers Reserve from many
// goroutines per tenant (run under -race) and asserts the per-tenant
// admitted count never exceeds MaxConcurrent at any instant.
func TestAdmissionQuotaNeverOversubscribes(t *testing.T) {
	const quota, perTenant = 2, 12
	q := NewAdmissionQueue(8)
	q.SetLimits(func(string) TenantLimits { return TenantLimits{MaxConcurrent: quota} })

	var running [2]atomic.Int32
	var admitted, rejected atomic.Int32
	var wg sync.WaitGroup
	for ti, tenant := range []string{"a", "b"} {
		for g := 0; g < perTenant; g++ {
			wg.Add(1)
			go func(ti int, tenant string, g int) {
				defer wg.Done()
				id := fmt.Sprintf("%s-%d", tenant, g)
				for {
					err := q.Reserve(tenant, id)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrQuotaExceeded) {
						t.Errorf("reserve %s: unexpected error %v", id, err)
						return
					}
					rejected.Add(1)
					time.Sleep(time.Millisecond)
				}
				if err := q.Await(id); err != nil {
					t.Errorf("await %s: %v", id, err)
					return
				}
				if n := running[ti].Add(1); n > quota {
					t.Errorf("tenant %s oversubscribed: %d concurrent (quota %d)", tenant, n, quota)
				}
				admitted.Add(1)
				time.Sleep(2 * time.Millisecond)
				running[ti].Add(-1)
				q.Release(id)
			}(ti, tenant, g)
		}
	}
	wg.Wait()
	if got := admitted.Load(); got != 2*perTenant {
		t.Fatalf("admitted %d studies, want %d", got, 2*perTenant)
	}
	if rejected.Load() == 0 {
		t.Fatal("expected at least one ErrQuotaExceeded rejection under contention")
	}
	if n := q.InFlight("a") + q.InFlight("b"); n != 0 {
		t.Fatalf("inflight after drain = %d, want 0", n)
	}
}

// TestAdmissionBackpressureBoundsDepth pins the bounded waiting room:
// immediate ErrBackpressure when full, ErrBackpressureTimeout from an
// exhausted ReserveWait, and a successful wait once space frees.
func TestAdmissionBackpressureBoundsDepth(t *testing.T) {
	q := NewAdmissionQueue(1)
	q.SetMaxDepth(2)
	if err := q.Reserve("a", "seed"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w1", "w2"} {
		if err := q.Reserve("a", id); err != nil {
			t.Fatalf("reserve %s: %v", id, err)
		}
	}
	if d := q.Depth(); d != 2 {
		t.Fatalf("Depth = %d, want 2", d)
	}
	err := q.Reserve("b", "w3")
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("reserve beyond depth = %v, want ErrBackpressure", err)
	}
	if errors.Is(err, ErrBackpressureTimeout) {
		t.Fatal("immediate rejection must not be the timeout sentinel")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := q.ReserveWait(ctx, "b", "w3"); !errors.Is(err, ErrBackpressureTimeout) {
		t.Fatalf("ReserveWait past deadline = %v, want ErrBackpressureTimeout", err)
	}

	// Space opens while a ReserveWait blocks: it must admit.
	done := make(chan error, 1)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	go func() { done <- q.ReserveWait(ctx2, "b", "w3") }()
	time.Sleep(10 * time.Millisecond)
	q.Release("seed") // grants w1, depth 2 → 1
	if err := <-done; err != nil {
		t.Fatalf("ReserveWait after space freed = %v, want nil", err)
	}
	if d := q.Depth(); d != 2 {
		t.Fatalf("Depth after re-admission = %d, want 2", d)
	}
}

// TestAdmissionEpochBudget checks the journal-derived lifetime budget
// gate.
func TestAdmissionEpochBudget(t *testing.T) {
	usage := map[string]int{"a": 10, "b": 9}
	q := NewAdmissionQueue(4)
	q.SetLimits(func(string) TenantLimits { return TenantLimits{MaxTotalEpochs: 10} })
	q.SetEpochUsage(func(tenant string) int { return usage[tenant] })

	err := q.Reserve("a", "a-1")
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "total_epochs" || !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("budget-exhausted reserve = %v, want QuotaError{total_epochs}", err)
	}
	if err := q.Reserve("b", "b-1"); err != nil {
		t.Fatalf("under-budget reserve = %v", err)
	}
}

// TestAdmissionAbortAndShutdown: canceled waiters observe
// ErrAdmissionAborted, granted studies are untouched, and Shutdown drains
// the room.
func TestAdmissionAbortAndShutdown(t *testing.T) {
	q := NewAdmissionQueue(1)
	if err := q.Reserve("a", "run"); err != nil {
		t.Fatal(err)
	}
	if err := q.Reserve("a", "wait"); err != nil {
		t.Fatal(err)
	}
	if q.Abort("run") {
		t.Fatal("Abort must not touch a granted reservation")
	}
	done := make(chan error, 1)
	go func() { done <- q.Await("wait") }()
	time.Sleep(5 * time.Millisecond)
	if !q.Abort("wait") {
		t.Fatal("Abort of a waiting reservation reported no action")
	}
	if err := <-done; !errors.Is(err, ErrAdmissionAborted) {
		t.Fatalf("aborted Await = %v, want ErrAdmissionAborted", err)
	}
	// A live id reports the duplicate instead of absorbing it, then
	// shutdown.
	if err := q.Reserve("a", "run"); !errors.Is(err, ErrAlreadyAdmitted) {
		t.Fatalf("re-reserve of live id = %v, want ErrAlreadyAdmitted", err)
	}
	if granted, ok := q.State("run"); !granted || !ok {
		t.Fatalf("State(run) = (%v, %v), want granted", granted, ok)
	}
	if _, ok := q.State("wait"); ok {
		t.Fatal("an aborted reservation must leave no entry")
	}
	if err := q.Reserve("b", "w2"); err != nil {
		t.Fatal(err)
	}
	if granted, ok := q.State("w2"); granted || !ok {
		t.Fatalf("State(w2) = (%v, %v), want waiting", granted, ok)
	}
	q.Shutdown()
	if err := q.Await("w2"); !errors.Is(err, ErrAdmissionAborted) {
		t.Fatalf("Await after Shutdown = %v, want ErrAdmissionAborted", err)
	}
	if err := q.Reserve("c", "c-1"); !errors.Is(err, ErrAdmissionAborted) {
		t.Fatalf("Reserve after Shutdown = %v, want ErrAdmissionAborted", err)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("Depth after Shutdown = %d, want 0", d)
	}
}

package hpo

import (
	"errors"
	"fmt"
)

// Admission-control sentinels. The runner's waiting room (AdmissionQueue)
// returns these, and the HTTP layer maps them onto status codes — check
// with errors.Is, never by string.
var (
	// ErrQuotaExceeded reports a reservation denied because the tenant is
	// at one of its configured quotas (concurrent studies, total epoch
	// budget, event-stream fan-out). The request is well-formed and will
	// succeed once the tenant's usage drops: HTTP 429 with Retry-After.
	ErrQuotaExceeded = errors.New("hpo: tenant quota exceeded")
	// ErrBackpressure reports that the shared waiting room is full — the
	// daemon cannot keep up with admission demand across all tenants. The
	// caller should back off and retry: HTTP 503 with Retry-After.
	ErrBackpressure = errors.New("hpo: admission queue full")
	// ErrBackpressureTimeout reports a blocking reservation (ReserveWait)
	// that waited its full deadline for waiting-room space and never got
	// it: HTTP 503. Distinct from ErrBackpressure so callers can tell an
	// immediate rejection from an exhausted wait.
	ErrBackpressureTimeout = errors.New("hpo: admission wait timed out under backpressure")
	// ErrAdmissionAborted reports a waiting reservation withdrawn before
	// its grant (study canceled, queue shut down). The study's journaled
	// state — not this error — decides what happens next.
	ErrAdmissionAborted = errors.New("hpo: admission reservation aborted")
	// ErrAlreadyAdmitted reports a reservation for a study that already
	// holds one (waiting or granted). The runner treats it as "already
	// queued or running": the start is a no-op, never a second execution.
	ErrAlreadyAdmitted = errors.New("hpo: study already admitted")
)

// QuotaError is the detail-carrying form of ErrQuotaExceeded: which tenant
// hit which quota, and where usage stood. errors.Is(err, ErrQuotaExceeded)
// matches through Unwrap, so callers can switch on the sentinel and still
// render the specifics.
type QuotaError struct {
	Tenant   string // tenant id (never the bearer token)
	Resource string // "concurrent_studies" | "total_epochs" | "event_subscribers"
	Used     int
	Limit    int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("%v: tenant %q at %d/%d %s", ErrQuotaExceeded, e.Tenant, e.Used, e.Limit, e.Resource)
}

func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

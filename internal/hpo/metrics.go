package hpo

import (
	"errors"

	"repro/internal/obs"
)

// Scheduler and study instrumentation: rung verdicts by scheduler, the
// async waiting room, and the epochs-executed vs batch-baseline pair that
// quantifies what rung-driven promotion saves (every epoch below a rung
// runs once instead of once per rung).
var (
	obsSchedPromotions = obs.Default().CounterVec("hpo_sched_promotions_total",
		"Rung promotions granted, by scheduler.", "scheduler")
	obsSchedHalts = obs.Default().CounterVec("hpo_sched_halts_total",
		"Trials halted by the study's decision engine (rung scheduler or pruner), by engine.", "scheduler")
	obsWaitingRoom = obs.Default().Gauge("hpo_sched_waiting_room_depth",
		"Members queued in async rung schedulers awaiting admission.")
	obsBaselineEpochs = obs.Default().Counter("hpo_sched_baseline_epochs_total",
		"Epochs the rung-driven Hyperband's bracket ladders would cost if every rung re-trained its survivors from scratch.")
	obsStudyEpochs = obs.Default().Counter("hpo_study_epochs_total",
		"Training epochs actually executed (one per streamed trial report).")
	obsStudyTrials = obs.Default().CounterVec("hpo_study_trials_total",
		"Trials settled, by outcome.", "outcome")
	obsTrialsSucceeded = obsStudyTrials.With("succeeded")
	obsTrialsPruned    = obsStudyTrials.With("pruned")
	obsTrialsCanceled  = obsStudyTrials.With("canceled")
	obsTrialsFailed    = obsStudyTrials.With("failed")
)

// Admission-control instrumentation. Tenant labels always carry tenant
// ids, never bearer tokens; the single-tenant daemon reports under
// "default". Cardinality is bounded by the static tenant registry.
var (
	obsAdmissionDepth = obs.Default().Gauge("hpo_admission_queue_depth",
		"Studies admitted into the runner's waiting room but not yet granted an execution slot.")
	obsAdmissionOldestWait = obs.Default().Gauge("hpo_admission_queue_oldest_wait_seconds",
		"Age of the longest-waiting admission reservation (0 when the waiting room is empty).")
	obsTenantAdmitted = obs.Default().CounterVec("hpo_tenant_admitted_total",
		"Studies granted an execution slot, by tenant.", "tenant")
	obsTenantRejected = obs.Default().CounterVec("hpo_tenant_rejected_total",
		"Admission requests rejected, by tenant and reason.", "tenant", "reason")
	obsTenantInflight = obs.Default().GaugeVec("hpo_tenant_studies_inflight",
		"Studies admitted and not yet finished (waiting + executing), by tenant.", "tenant")
	obsTenantSubscribers = obs.Default().GaugeVec("hpo_tenant_sse_subscribers",
		"SSE event-stream subscribers currently connected, by tenant.", "tenant")
	obsTenantEpochsUsed = obs.Default().GaugeVec("hpo_tenant_epochs_used",
		"Journal-derived training epochs consumed against the tenant's lifetime budget.", "tenant")
)

// tenantLabel maps the registry-less empty tenant onto a readable series.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// CountRejection classifies an admission error onto the per-tenant
// rejection counter. The HTTP layer reuses it for quota rejections it
// raises itself (SSE fan-out caps).
func CountRejection(tenant string, err error) {
	reason := ""
	var qe *QuotaError
	switch {
	case errors.Is(err, ErrBackpressureTimeout):
		reason = "backpressure_timeout"
	case errors.Is(err, ErrBackpressure):
		reason = "backpressure"
	case errors.As(err, &qe):
		reason = qe.Resource
	case errors.Is(err, ErrQuotaExceeded):
		reason = "quota"
	default:
		return
	}
	obsTenantRejected.With(tenantLabel(tenant), reason).Inc()
}

// countRejection is CountRejection for the queue's internal call sites.
func countRejection(tenant string, err error) { CountRejection(tenant, err) }

// AddTenantSubscribers moves a tenant's SSE subscriber gauge (the HTTP
// layer owns the connections; the family lives here with the rest of the
// per-tenant series).
func AddTenantSubscribers(tenant string, d float64) {
	obsTenantSubscribers.With(tenantLabel(tenant)).Add(d)
}

// SetTenantEpochsUsed publishes a tenant's journal-derived epoch usage
// (refreshed at scrape time by the daemon).
func SetTenantEpochsUsed(tenant string, n int) {
	obsTenantEpochsUsed.With(tenantLabel(tenant)).Set(float64(n))
}

// registerAdmissionScrape keeps the oldest-wait gauge honest at scrape
// time (it ages continuously while the room is non-empty). Keyed
// registration: the newest queue owns the hook.
func registerAdmissionScrape(q *AdmissionQueue) {
	obs.Default().OnScrape("hpo.admission", func() {
		obsAdmissionOldestWait.Set(q.OldestWait().Seconds())
	})
}

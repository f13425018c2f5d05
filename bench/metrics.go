package main

import (
	"strings"
)

// metricDef names one reported number. BENCHMARK.json lists the same
// names, units and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a tenant or operator of the service sees, the
// same seven on every workload. Bound is the share of the parent's median
// by which the metric may worsen before a change is a regression; README.md
// gives the measured run-to-run spread each bound was set against.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"studies_per_s", "1/s", "higher", 0.15},
	{"epochs_per_s", "1/s", "higher", 0.15},
	{"study_ms_p50", "ms", "lower", 0.25},
	{"first_epoch_ms_p50", "ms", "lower", 0.25},
	{"cpu_s_per_kepoch", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
}

// perLayer are single-layer metrics (`<layer>.<name>`, the layers being
// this repo's packages) plus the service-level numbers that only one
// workload defines or that do not repeat within their bound (`svc.`), the
// generator's own validity guards (`loadgen.`) and the breakdown. They are
// reported by the traced run and carry no bound. A metric that does not
// apply to a workload reads 0.
var perLayer = []metricDef{
	{Name: "tensor.gemm_gflops_u1", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_gflops_uN", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_scaling_eff", Unit: "ratio", Better: "higher"},
	{Name: "tensor.gemm_epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.epoch_allocs", Unit: "count", Better: "lower"},
	{Name: "nn.fwd_share", Unit: "ratio", Better: "lower"},
	{Name: "nn.bwd_share", Unit: "ratio", Better: "lower"},
	{Name: "nn.opt_share", Unit: "ratio", Better: "lower"},
	{Name: "datasets.build_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "runtime.noop_tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.new_shutdown_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.busy_core_share", Unit: "ratio", Better: "higher"},
	{Name: "runtime.tasks_retried", Unit: "count", Better: "lower"},
	{Name: "runtime.extend_grant_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "comm.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "comm.report_bytes", Unit: "B", Better: "lower"},
	{Name: "comm.msgs_per_epoch", Unit: "ratio", Better: "lower"},
	{Name: "comm.reports_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.append_us_sync_w1", Unit: "us", Better: "lower"},
	{Name: "store.append_us_sync_wN", Unit: "us", Better: "lower"},
	{Name: "store.append_us_nosync", Unit: "us", Better: "lower"},
	{Name: "store.append_cpu_us_sync", Unit: "us", Better: "lower"},
	{Name: "store.records_per_fsync", Unit: "ratio", Better: "higher"},
	{Name: "store.bytes_per_epoch", Unit: "B", Better: "lower"},
	{Name: "store.rotations", Unit: "count", Better: "lower"},
	{Name: "store.boot_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshot_read_ms", Unit: "ms", Better: "lower"},
	{Name: "store.memo_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "store.events_retained", Unit: "count", Better: "lower"},
	{Name: "hpo.report_path_us", Unit: "us", Better: "lower"},
	{Name: "hpo.report_path_journal_us", Unit: "us", Better: "lower"},
	{Name: "hpo.decisions_per_epoch", Unit: "ratio", Better: "lower"},
	{Name: "hpo.admission_us", Unit: "us", Better: "lower"},
	{Name: "hpo.fair_share_err", Unit: "ratio", Better: "lower"},
	{Name: "hpo.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "hpo.epochs_saved_ratio", Unit: "ratio", Better: "lower"},
	{Name: "hpo.promotions", Unit: "count", Better: "higher"},
	{Name: "hpo.halts", Unit: "count", Better: "higher"},
	{Name: "server.create_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.start_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.list_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.trials_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.sse_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.sse_events_sent", Unit: "count", Better: "higher"},
	{Name: "server.http_5xx", Unit: "count", Better: "lower"},
	{Name: "replay.verify_us_per_record", Unit: "us", Better: "lower"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.scrape_bytes", Unit: "B", Better: "lower"},
	{Name: "build.hpod_s", Unit: "s", Better: "lower"},
	{Name: "svc.epochs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "svc.study_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "svc.study_tail_pct", Unit: "%", Better: "higher"},
	{Name: "svc.study_samples", Unit: "count", Better: "higher"},
	{Name: "svc.verify_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "svc.catchup_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "svc.admit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "svc.admit_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "svc.recovery_s", Unit: "s", Better: "lower"},
	{Name: "svc.interrupted_studies", Unit: "count", Better: "lower"},
	{Name: "svc.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "svc.refused_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.deadline_hit", Unit: "count", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "breakdown.tensor_share", Unit: "ratio", Better: "lower"},
	{Name: "breakdown.nn_share", Unit: "ratio", Better: "lower"},
	{Name: "breakdown.datasets_share", Unit: "ratio", Better: "lower"},
	{Name: "breakdown.runtime_share", Unit: "ratio", Better: "lower"},
	{Name: "breakdown.comm_share", Unit: "ratio", Better: "lower"},
	{Name: "breakdown.store_share", Unit: "ratio", Better: "lower"},
	{Name: "breakdown.hpo_share", Unit: "ratio", Better: "lower"},
	{Name: "breakdown.server_share", Unit: "ratio", Better: "lower"},
	{Name: "breakdown.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "breakdown.idle_share", Unit: "ratio", Better: "lower"},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render attaches units to the values of defs; a name missing from vals
// reads 0 (the metric does not apply to this workload).
func render(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{vals[d.Name], d.Unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// epochs is the number of metric records journaled in the measured window.
func (p *passResult) epochs() float64 {
	return p.counters.sum("hpo_store_appends_total", "type", "metric")
}

// endToEndValues computes the end-to-end metrics of a pass.
func (p *passResult) endToEndValues() map[string]float64 {
	epochs := p.epochs()
	return map[string]float64{
		"setup_s":            median(p.setupS),
		"studies_per_s":      ratio(float64(p.finished), p.wall),
		"epochs_per_s":       ratio(epochs, p.wall),
		"study_ms_p50":       p.studyMS.p50(),
		"first_epoch_ms_p50": p.firstEpochMS.p50(),
		"cpu_s_per_kepoch":   ratio(p.cpuS*1000, epochs),
		"rss_peak_mb":        p.hwmMB,
	}
}

// perLayerValues computes the per-layer metrics of a pass from the
// /metrics deltas, the client's spans, the journal join and the probes,
// and derives the breakdown: count × probe unit cost ÷ (wall × cores).
func (p *passResult) perLayerValues() map[string]float64 {
	probes := p.probes
	m := map[string]float64{}
	for k, v := range probes {
		m[k] = v
	}
	c, epochs, cores := p.counters, p.epochs(), float64(p.cfg.nproc)
	capacity := p.wall * cores // core-seconds available in the window
	remote := false
	for _, f := range p.flags {
		remote = remote || f == "remote"
	}

	m["runtime.busy_core_share"] = ratio(median(p.busyCores), cores)
	m["runtime.tasks_retried"] = c.sum("hpo_runtime_tasks_retried_total")
	m["runtime.extend_grant_ms_p50"] = c.quantile("hpo_runtime_extend_grant_latency_seconds", 0.5) * 1000
	trials := c.sum("hpo_store_appends_total", "type", "trial")
	decisions := c.sum("hpo_store_appends_total", "type", "prune") + c.sum("hpo_store_appends_total", "type", "promote")
	if remote {
		// Per trial a submit and a done message; per epoch a report; per
		// decision an extend or a cancel.
		m["comm.msgs_per_epoch"] = ratio(epochs+decisions+2*trials, epochs)
		m["comm.reports_per_s"] = ratio(epochs, p.wall)
	}
	appends := c.sum("hpo_store_appends_total")
	m["store.records_per_fsync"] = ratio(c.sum("hpo_store_fsync_batch_records_sum"), c.sum("hpo_store_fsync_batch_records_count"))
	m["store.bytes_per_epoch"] = ratio(c.sum("hpo_store_append_bytes_total"), epochs)
	m["store.rotations"] = c.sum("hpo_store_segment_rotations_total")
	m["store.memo_hit_share"] = ratio(float64(p.memoTrials), float64(p.totalTrials))
	m["store.events_retained"] = p.gauges.sum("hpo_store_events_retained")
	m["hpo.decisions_per_epoch"] = ratio(decisions, epochs)
	m["hpo.queue_depth_max"] = p.queueDepthMax
	m["hpo.epochs_saved_ratio"] = ratio(c.sum("hpo_study_epochs_total"), c.sum("hpo_sched_baseline_epochs_total"))
	m["hpo.promotions"] = c.sum("hpo_sched_promotions_total")
	m["hpo.halts"] = c.sum("hpo_sched_halts_total")
	m["server.create_ms_p50"] = p.lat.create.p50()
	m["server.start_ms_p50"] = p.lat.start.p50()
	m["server.list_ms_p50"] = p.lat.list.p50()
	m["server.trials_ms_p50"] = p.lat.trials.p50()
	m["server.sse_lag_ms_p50"] = p.sseLagMS.p50()
	m["server.sse_events_sent"] = c.sum("hpod_sse_events_sent_total")
	m["server.http_5xx"] = c.sumWhere("hpod_http_requests_total", func(l map[string]string) bool {
		return strings.HasPrefix(l["code"], "5")
	})
	m["obs.scrape_ms"] = p.lat.scrape.p50()
	m["obs.scrape_bytes"] = float64(p.lat.scrapeBytes.Load())
	m["build.hpod_s"] = p.buildS
	m["svc.epochs_per_s"] = ratio(epochs, p.wall)
	pct, tail := p.studyMS.tail()
	m["svc.study_ms_tail"], m["svc.study_tail_pct"], m["svc.study_samples"] = tail, pct, float64(p.studyMS.n())
	m["svc.verify_ms_p50"], m["svc.catchup_events_per_s"] = p.lat.verify.p50(), p.catchupRate.p50()
	m["svc.admit_ms_p50"], m["svc.admit_ms_p95"] = p.admitMS.p50(), p.admitMS.pct(95)
	m["svc.recovery_s"], m["svc.interrupted_studies"] = p.recoveryS, float64(p.interrupted)
	attempted := float64(p.ops.attempted.Load())
	m["svc.failed_share"] = ratio(float64(p.ops.failed.Load()), attempted)
	m["svc.refused_share"] = ratio(float64(p.ops.refused.Load()), attempted)
	m["loadgen.late_ms_p95"] = p.lateMS.pct(95)
	m["loadgen.cpu_share"] = ratio(p.selfCPU, capacity)
	if p.deadlineHit.Load() {
		m["loadgen.deadline_hit"] = 1
	}
	m["trace.spans"] = float64(p.tr.count())

	// The breakdown multiplies what the daemon counted by what the probes
	// say one unit costs. Alone, a faster layer can save at most its share.
	gemmS := epochs * probes["tensor.gemm_epoch_ms"] / 1000
	trainS := epochs * probes["nn.epoch_ms"] / 1000
	builds := float64(p.finished)
	if remote {
		builds *= 1 + cores // the master and every worker build their own copy
	}
	syncAppends := appends - epochs
	share := map[string]float64{
		"tensor":   gemmS,
		"nn":       trainS - gemmS,
		"datasets": builds * probes["datasets.build_ms"] / 1000,
		"runtime": c.sum("hpo_runtime_tasks_submitted_total")*probes["runtime.dispatch_us"]/1e6 +
			float64(p.finished)*probes["runtime.new_shutdown_ms"]/1000,
		// CPU cost, not latency: a writer waiting for the disk holds no core.
		"store": (epochs*probes["store.append_us_nosync"] + syncAppends*probes["store.append_cpu_us_sync"]) / 1e6,
		"hpo":   epochs*probes["hpo.report_path_us"]/1e6 + c.sum("hpo_tenant_admitted_total")*probes["hpo.admission_us"]/1e6,
		// The HTTP plane has no probe: the daemon's own handler-time
		// histogram is its cost, bar the long-lived SSE handlers, which
		// mostly wait.
		"server": c.sumWhere("hpod_http_request_seconds_sum", func(l map[string]string) bool {
			return !strings.HasSuffix(l["endpoint"], "/events")
		}),
	}
	if remote {
		share["comm"] = m["comm.msgs_per_epoch"] * epochs * probes["comm.roundtrip_us"] / 2 / 1e6
	}
	attributed := 0.0
	for layer, s := range share {
		m["breakdown."+layer+"_share"] = ratio(s, capacity)
		attributed += ratio(s, capacity)
	}
	busy := ratio(p.cpuS, capacity)
	m["breakdown.idle_share"] = 1 - busy
	m["breakdown.unattributed_share"] = busy - attributed
	return m
}

// Package server is the hpod HTTP control plane: a net/http API over the
// persistent study store (internal/store) and the async study runner (a
// goroutine per study, gated by the admission queue). Studies are created
// from JSON specs, executed asynchronously, and observable via polling or
// a per-study SSE event stream fed by the journal.
//
//	POST /v1/studies             create a study (spec body; "start": true to run)
//	GET  /v1/studies             list studies
//	GET  /v1/studies/{id}        study metadata + progress
//	POST /v1/studies/{id}/start  queue the study for (re-)execution
//	POST /v1/studies/{id}/cancel stop a queued/running study (terminal "canceled")
//	GET  /v1/studies/{id}/trials finished trials
//	GET  /v1/studies/{id}/events SSE stream of trial/metric/prune/state events (?since=seq)
//	GET  /v1/studies/{id}/timeline      per-trial gantt rows rebuilt from the journal
//	GET  /v1/studies/{id}/timeline.prv  the same timeline as a Paraver trace
//	POST /v1/studies/{id}/verify replay the journal's decisions and check they byte-match
//	POST /v1/admin/compact       compact terminal studies' journal segments now
//	GET  /healthz                liveness + counters + journal/compaction stats
//	GET  /metrics                Prometheus text exposition (internal/obs registry)
//
// When a bearer token is configured (SetAuthToken / hpod -token), every
// endpoint except /healthz and /metrics requires "Authorization: Bearer
// <token>" — the metrics registry carries only aggregate counters, never
// study payloads (see docs/OBSERVABILITY.md).
package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/hpo"
	"repro/internal/store"
)

// Server is the hpod control plane. Create with New and mount via Handler.
type Server struct {
	store   *store.Journal
	runner  *Runner
	started time.Time
	mux     *http.ServeMux
	// token, when non-empty, gates every endpoint except /healthz behind
	// bearer auth.
	token string
	// tenants, when non-nil, switches the server to multi-tenant mode:
	// bearer tokens resolve to tenants, study ids are tenant-prefixed, and
	// listings/reads are tenant-scoped.
	tenants *TenantRegistry
	// retryAfter is the Retry-After hint attached to 429/503 admission
	// rejections.
	retryAfter time.Duration

	// subsMu guards subs, the per-tenant count of connected SSE
	// subscribers (the MaxEventSubscribers quota denominator).
	subsMu sync.Mutex
	subs   map[string]int
}

// tenantKey carries the resolved *Tenant through the request context.
type tenantKey struct{}

// tenantOf returns the request's resolved tenant (nil in single-token
// mode).
func tenantOf(r *http.Request) *Tenant {
	t, _ := r.Context().Value(tenantKey{}).(*Tenant)
	return t
}

// New wires a server over a journal and a runtime factory. maxConcurrent
// bounds simultaneously executing studies.
func New(st *store.Journal, factory RuntimeFactory, maxConcurrent int) *Server {
	s := &Server{
		store:      st,
		runner:     NewRunner(st, factory, maxConcurrent),
		started:    time.Now(),
		mux:        http.NewServeMux(),
		retryAfter: time.Second,
		subs:       make(map[string]int),
	}
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("POST /v1/studies", s.handleCreate)
	s.handle("GET /v1/studies", s.handleList)
	s.handle("GET /v1/studies/{id}", s.handleGet)
	s.handle("POST /v1/studies/{id}/start", s.handleStart)
	s.handle("POST /v1/studies/{id}/cancel", s.handleCancel)
	s.handle("GET /v1/studies/{id}/trials", s.handleTrials)
	s.handle("GET /v1/studies/{id}/events", s.handleEvents)
	s.handle("GET /v1/studies/{id}/timeline", s.handleTimeline)
	s.handle("GET /v1/studies/{id}/timeline.prv", s.handleTimelinePrv)
	s.handle("POST /v1/studies/{id}/verify", s.handleVerify)
	s.handle("POST /v1/admin/compact", s.handleCompact)
	s.registerScrapeHook()
	// Verify-on-compact is on by default: the journal refuses to drop any
	// decision stream that fails replay verification (hpod
	// -verify-on-compact=false unhooks it).
	st.SetCompactVerify(s.CompactVerify)
	return s
}

// handle registers a route with request-count and latency instrumentation,
// labelled by the route pattern.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, instrument(pattern, h))
}

// SetAuthToken enables bearer-token auth: when tok is non-empty, every
// endpoint except GET /healthz and GET /metrics (liveness probes and
// scrapers stay unauthenticated) rejects requests lacking
// "Authorization: Bearer <tok>". Reads are gated too — study specs and
// trial metrics are not public data.
func (s *Server) SetAuthToken(tok string) { s.token = tok }

// SetTenantRegistry switches the server to multi-tenant mode: every
// request (bar /healthz and /metrics) must present a registered tenant's
// bearer token, studies live in per-tenant namespaces, and the runner's
// admission queue enforces the registry's quota envelopes (epoch budgets
// re-derived from the journal). Supersedes SetAuthToken.
func (s *Server) SetTenantRegistry(reg *TenantRegistry) {
	s.tenants = reg
	s.runner.ConfigureTenancy(reg.Limits, s.store.TenantEpochs)
}

// SetRetryAfter tunes the Retry-After hint on 429/503 admission
// rejections (default 1s).
func (s *Server) SetRetryAfter(d time.Duration) {
	if d > 0 {
		s.retryAfter = d
	}
}

// Handler returns the HTTP handler tree (wrapped with auth when a token
// or a tenant registry is configured).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
			switch {
			case s.tenants != nil:
				tenant := s.tenants.Resolve(r.Header.Get("Authorization"))
				if tenant == nil {
					w.Header().Set("WWW-Authenticate", "Bearer")
					writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "server: missing or invalid bearer token"})
					return
				}
				r = r.WithContext(context.WithValue(r.Context(), tenantKey{}, tenant))
			case s.token != "":
				if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte("Bearer "+s.token)) != 1 {
					w.Header().Set("WWW-Authenticate", "Bearer")
					writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "server: missing or invalid bearer token"})
					return
				}
			}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Runner exposes the study executor (daemon resume, tests).
func (s *Server) Runner() *Runner { return s.runner }

// writeJSON renders v with status code.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps sentinel errors onto HTTP statuses. Admission errors
// carry a Retry-After hint: 429 for quota rejections (retry after the
// tenant's own studies finish), 503 for backpressure (retry after the
// shared waiting room drains).
func (s *Server) writeError(w http.ResponseWriter, err error) {
	writeJSON(w, s.errorStatus(w, err), map[string]string{"error": err.Error()})
}

// errorStatus resolves err's HTTP status, setting Retry-After on the
// response for admission rejections.
func (s *Server) errorStatus(w http.ResponseWriter, err error) int {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, store.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, store.ErrExists):
		code = http.StatusConflict
	case errors.Is(err, ErrBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotCancelable):
		code = http.StatusConflict
	case errors.Is(err, hpo.ErrQuotaExceeded):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.retryAfter)))
	case errors.Is(err, hpo.ErrBackpressure), errors.Is(err, hpo.ErrBackpressureTimeout):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.retryAfter)))
	case errors.Is(err, hpo.ErrAdmissionAborted), errors.Is(err, store.ErrClosed):
		code = http.StatusServiceUnavailable
	}
	return code
}

// getVisible loads a study enforcing tenant scoping: a study owned by
// another tenant reads as not-found — existence itself is namespaced, so
// ids never leak across tenants.
func (s *Server) getVisible(r *http.Request, id string) (store.StudyMeta, error) {
	meta, err := s.store.GetStudy(id)
	if err != nil {
		return store.StudyMeta{}, err
	}
	if t := tenantOf(r); t != nil && meta.Tenant != t.ID {
		return store.StudyMeta{}, fmt.Errorf("%w: %s", store.ErrNotFound, id)
	}
	return meta, nil
}

// retryAfterSeconds renders a Retry-After duration in whole seconds,
// rounding sub-second hints up to 1 (a zero hint reads as "no wait").
func retryAfterSeconds(d time.Duration) int {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// studyView is the API rendering of a study.
type studyView struct {
	ID        string           `json:"id"`
	Name      string           `json:"name,omitempty"`
	State     store.StudyState `json:"state"`
	Job       string           `json:"job,omitempty"`
	Error     string           `json:"error,omitempty"`
	CreatedAt time.Time        `json:"created_at"`
	UpdatedAt time.Time        `json:"updated_at"`
	Trials    int              `json:"trials"`
	Resumed   int              `json:"resumed,omitempty"`
	Memoized  int              `json:"memoized,omitempty"`
	BestAcc   float64          `json:"best_acc,omitempty"`
	Spec      json.RawMessage  `json:"spec,omitempty"`
}

// view renders meta, preferring live trial counts over end-of-run summary
// so pollers watch progress while the study runs.
func (s *Server) view(meta store.StudyMeta, withSpec bool) studyView {
	v := studyView{
		ID: meta.ID, Name: meta.Name, State: meta.State, Error: meta.Error,
		CreatedAt: meta.CreatedAt, UpdatedAt: meta.UpdatedAt,
		Trials: meta.Trials, Resumed: meta.Resumed,
		Memoized: meta.Memoized, BestAcc: meta.BestAcc,
	}
	if n := s.store.TrialCount(meta.ID); n > v.Trials {
		v.Trials = n
	}
	if granted, ok := s.runner.adm.State(meta.ID); ok {
		v.Job = "queued"
		if granted {
			v.Job = "running"
		}
	}
	if withSpec {
		v.Spec = json.RawMessage(meta.Spec)
	}
	return v
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	studies := s.store.ListStudies()
	active := 0
	for _, m := range studies {
		if m.State.Active() {
			active++
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":         "ok",
		"uptime_seconds": int(time.Since(s.started).Seconds()),
		"studies":        len(studies),
		"active":         active,
		"journal":        s.store.Stats(),
	})
}

// handleCompact runs an on-demand journal compaction: every terminal study
// is rewritten down to its summary records (per-epoch metric telemetry is
// dropped from disk and from the SSE resume window). Returns the run's
// reclaim counters plus the cumulative totals — the same numbers /healthz
// reports under "journal".
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if t := tenantOf(r); t != nil && !t.Admin {
		writeJSON(w, http.StatusForbidden,
			map[string]string{"error": "server: compaction requires an admin tenant"})
		return
	}
	delta, err := s.store.Compact()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"compacted": delta,
		"journal":   s.store.Stats(),
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadSpec, err))
		return
	}
	spec, err := ParseSpec(raw)
	if err == nil {
		// Persist the resolution, not the daemon defaults it came from.
		raw, err = spec.Pin(s.runner.DefaultScheduler, s.runner.DefaultRungMode, s.runner.DefaultPruner)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	id := NewStudyID()
	tenantID := ""
	if t := tenantOf(r); t != nil {
		// The tenant id prefixes the study id, so per-study journal
		// sharding doubles as per-tenant sharding and ids are namespaced.
		tenantID = t.ID
		id = t.ID + "." + id
	}
	name := spec.Name
	if name == "" {
		name = id
	}
	if err := s.store.CreateStudy(store.StudyMeta{ID: id, Name: name, Tenant: tenantID, Spec: raw}); err != nil {
		s.writeError(w, err)
		return
	}
	if spec.Start {
		if err := s.runner.Start(id); err != nil {
			// The study exists but was refused admission (quota or
			// backpressure): return the id so the client can start it later.
			writeJSON(w, s.errorStatus(w, err), map[string]string{"error": err.Error(), "id": id})
			return
		}
	}
	meta, err := s.store.GetStudy(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.view(meta, false))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	metas := s.store.ListStudies()
	out := make([]studyView, 0, len(metas))
	for _, m := range metas {
		if tenant != nil && m.Tenant != tenant.ID {
			continue
		}
		out = append(out, s.view(m, false))
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"studies": out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	meta, err := s.getVisible(r, r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.view(meta, true))
}

// handleStart queues the study. ?wait=<duration> turns waiting-room
// backpressure into a bounded block: the request holds until admission
// or the deadline (then 503 with ErrBackpressureTimeout) instead of
// failing fast.
func (s *Server) handleStart(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.getVisible(r, id); err != nil {
		s.writeError(w, err)
		return
	}
	var err error
	if q := r.URL.Query().Get("wait"); q != "" {
		d, perr := time.ParseDuration(q)
		if perr != nil || d <= 0 {
			writeJSON(w, http.StatusBadRequest,
				map[string]string{"error": fmt.Sprintf("server: wait must be a positive duration, got %q", q)})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		err = s.runner.StartWait(ctx, id)
		cancel()
	} else {
		err = s.runner.Start(id)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	meta, err := s.store.GetStudy(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.view(meta, false))
}

// handleCancel stops a queued or running study. The canceled state is
// terminal and journaled, so a restarting daemon never re-queues it.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.getVisible(r, id); err != nil {
		s.writeError(w, err)
		return
	}
	if err := s.runner.Cancel(id); err != nil {
		s.writeError(w, err)
		return
	}
	meta, err := s.store.GetStudy(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.view(meta, false))
}

func (s *Server) handleTrials(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.getVisible(r, id); err != nil {
		s.writeError(w, err)
		return
	}
	trials, err := s.store.StudyTrials(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"trials": trials})
}

// handleEvents streams a study's journal records as Server-Sent Events.
// Every event carries its journal sequence number as the SSE id, so a
// dropped client resumes with ?since=<last-id>. The stream ends once the
// study reaches a terminal state and all its events have been sent.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.getVisible(r, id); err != nil {
		s.writeError(w, err)
		return
	}
	since := uint64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				map[string]string{"error": fmt.Sprintf("server: since must be a sequence number, got %q", q)})
			return
		}
		since = v
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, errors.New("server: response writer cannot stream"))
		return
	}
	tenant := tenantOf(r)
	if err := s.acquireSubscriber(tenant); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.releaseSubscriber(tenant)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	obsSSESubscribers.Add(1)
	defer obsSSESubscribers.Add(-1)
	for {
		watch := s.store.Watch()
		events, tail := s.store.EventsSince(id, since)
		obsSSEFanoutLag.Observe(float64(len(events)))
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			obsSSEEventsSent.Inc()
		}
		flusher.Flush()
		since = tail
		if meta, err := s.store.GetStudy(id); err != nil || meta.State.Terminal() {
			// Re-check for events raced in between the snapshot and the
			// state read before closing the stream.
			if rest, _ := s.store.EventsSince(id, since); len(rest) == 0 {
				return
			}
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-watch:
		}
	}
}

// acquireSubscriber reserves one SSE stream slot against the tenant's
// MaxEventSubscribers quota (nil tenant / zero quota = unlimited,
// counted under the "default" namespace).
func (s *Server) acquireSubscriber(t *Tenant) error {
	id := ""
	if t != nil {
		id = t.ID
	}
	s.subsMu.Lock()
	defer s.subsMu.Unlock()
	if t != nil && t.MaxEventSubscribers > 0 && s.subs[id] >= t.MaxEventSubscribers {
		err := &hpo.QuotaError{Tenant: id, Resource: "event_subscribers",
			Used: s.subs[id], Limit: t.MaxEventSubscribers}
		hpo.CountRejection(id, err)
		return err
	}
	s.subs[id]++
	hpo.AddTenantSubscribers(id, 1)
	return nil
}

// releaseSubscriber returns an SSE stream slot.
func (s *Server) releaseSubscriber(t *Tenant) {
	id := ""
	if t != nil {
		id = t.ID
	}
	s.subsMu.Lock()
	s.subs[id]--
	if s.subs[id] <= 0 {
		delete(s.subs, id)
	}
	s.subsMu.Unlock()
	hpo.AddTenantSubscribers(id, -1)
}

package server

import (
	"errors"
	"net/http"

	"repro/internal/replay"
)

// VerifyResponse is the body of POST /v1/studies/{id}/verify. OK means the
// journal's recorded decision stream byte-matched a fresh replay of the
// study's decision logic; when false, Error classifies the failure
// (divergence vs corruption) and Diff pinpoints the first mismatch.
type VerifyResponse struct {
	OK bool `json:"ok"`
	// Error is the typed verification failure ("" when OK).
	Error string `json:"error,omitempty"`
	// Diff is a unified recorded-vs-replayed excerpt around the first
	// diverging decision (divergence failures only).
	Diff string `json:"diff,omitempty"`
	// Report is the replay accounting regardless of verdict: decision
	// logs, epoch totals, per-trial budget ladders, warnings.
	Report *replay.Report `json:"report"`
}

// handleVerify serves POST /v1/studies/{id}/verify: re-derives the study's
// scheduler/pruner decisions from its journal record stream and checks the
// recorded decisions byte-match the replay (docs/JOURNAL.md, "Replay
// contract"). Pure over the journal — no runtime is touched, so verifying
// a terminal study is always safe and repeated calls are idempotent.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, err := s.getVisible(r, id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rep, err := s.verify(id, meta.Spec)
	if err != nil && !errors.Is(err, replay.ErrDivergence) && !errors.Is(err, replay.ErrCorrupt) {
		// Not a verification verdict — a bad spec or an infrastructure
		// failure.
		s.writeError(w, err)
		return
	}
	resp := VerifyResponse{OK: err == nil, Report: rep}
	if err != nil {
		resp.Error = err.Error()
		var div *replay.DivergenceError
		if errors.As(err, &div) {
			resp.Diff = div.Diff()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// CompactVerify is the journal's verify-on-compact gate
// (store.SetCompactVerify): it re-runs the study's decision replay exactly
// like POST /v1/studies/{id}/verify and returns the verification error, so
// compaction refuses to drop a record stream that no longer byte-matches
// its replay. Infrastructure failures (unreadable records, bad spec)
// refuse too — conservatively: when the stream cannot be proven intact it
// must not be destroyed.
func (s *Server) CompactVerify(id string) error {
	meta, err := s.store.GetStudy(id)
	if err != nil {
		return err
	}
	if len(meta.Spec) == 0 {
		// No spec on record (store-level writers, pre-spec migrations):
		// there is no decision stream to re-derive, nothing to protect.
		return nil
	}
	_, err = s.verify(id, meta.Spec)
	return err
}

// verify replays a study's journal under its persisted spec. A spec pinned
// at create carries its resolution; one journaled before pinning resolves
// against the daemon's current -scheduler/-rung-mode/-pruner defaults.
func (s *Server) verify(id string, raw []byte) (*replay.Report, error) {
	spec, err := ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	params, err := spec.ReplayParams(s.runner.DefaultScheduler, s.runner.DefaultRungMode, s.runner.DefaultPruner)
	if err != nil {
		return nil, err
	}
	recs, err := s.store.StudyRecords(id)
	if err != nil {
		return nil, err
	}
	return replay.Verify(id, recs, params)
}

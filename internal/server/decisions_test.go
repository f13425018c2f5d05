package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hpo"
	"repro/internal/runtime"
	"repro/internal/store"
)

// newGatedTestServer wires a server on a slots-wide runtime whose
// objective streams one report per epoch, honours rung promotion and, like
// MLObjective, stops itself on reaching the target before it consults the
// budget gate: a config's acc scales its curve, acc·(epoch+1)/9, so a
// study runs in milliseconds with a deterministic ordering.
func newGatedTestServer(t *testing.T, slots int) (*Server, *store.Journal, *httptest.Server) {
	t.Helper()
	journal, err := store.OpenJournal(filepath.Join(t.TempDir(), "j"), store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	factory := func(spec StudySpec) (*runtime.Runtime, func(), error) {
		rt, err := runtime.New(runtime.Options{Cluster: cluster.Local(slots), Backend: runtime.Real})
		if err != nil {
			return nil, nil, err
		}
		return rt, rt.Shutdown, nil
	}
	srv := New(journal, factory, 1)
	srv.Runner().Objectives = func(spec StudySpec) (hpo.Objective, error) {
		return &hpo.FuncObjective{ObjName: "gated", Fn: func(ctx hpo.ObjectiveContext) (hpo.TrialMetrics, error) {
			total := ctx.Config.Int("num_epochs", 1)
			if ctx.Proceed != nil && ctx.EpochCeiling > total {
				total = ctx.EpochCeiling
			}
			var m hpo.TrialMetrics
			for e := 0; e < total; e++ {
				if ctx.Halt != nil && ctx.Halt() != "" {
					m.Stopped = true
					return m, nil
				}
				v := ctx.Config.Float("acc", 0) * float64(e+1) / 9
				m.Epochs, m.BestAcc, m.FinalAcc = e+1, v, v
				if ctx.Report != nil {
					ctx.Report(e, v)
				}
				if ctx.TargetAccuracy > 0 && v >= ctx.TargetAccuracy {
					m.Stopped = true
					return m, nil
				}
				if e+1 < total && ctx.Proceed != nil && !ctx.Proceed(e+1) {
					m.Stopped = true
					return m, nil
				}
			}
			return m, nil
		}}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Runner().Close(0) })
	return srv, journal, ts
}

// verifyOK runs POST /verify on a study and fails unless the journal
// replays cleanly in mode with at least one decision on record.
func verifyOK(t *testing.T, base, id, mode string) *VerifyResponse {
	t.Helper()
	code, body := postVerify(t, base+"/v1/studies/"+id+"/verify")
	var resp VerifyResponse
	if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK {
		t.Fatalf("verify = %d %v:\n%.400s", code, err, body)
	}
	if !resp.OK || resp.Report == nil {
		t.Fatalf("verify failed: %s\n%s", resp.Error, resp.Diff)
	}
	if resp.Report.Mode != mode || len(resp.Report.Recorded) == 0 {
		t.Fatalf("verify replayed mode %q with %d decisions, want mode %q with some", resp.Report.Mode, len(resp.Report.Recorded), mode)
	}
	return &resp
}

// TestVerifyASHAStudyWithoutNumEpochs: an asha study over a space with no
// num_epochs admits every trial at budget 0, which ASHAScheduler.Admit
// clamps to its first rung. Replay admits through that same Admit, so the
// promotions it journaled verify.
func TestVerifyASHAStudyWithoutNumEpochs(t *testing.T) {
	_, _, ts := newGatedTestServer(t, 1)
	code, created := postJSON(t, ts.URL+"/v1/studies", `{
		"algo": "grid", "scheduler": "asha", "budget": 9,
		"space": {"acc": [0.82, 0.64, 0.23, 0.77, 0.15, 0.91]},
		"start": true}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)
	waitForState(t, ts.URL, id, "done")
	verifyOK(t, ts.URL, id, "asha-promote")
}

// TestVerifyAfterDaemonDefaultsChange: a study that got its scheduler from
// the daemon's -scheduler default keeps it after the flag changes. Create
// pins the resolution into the stored spec, so verify and the
// verify-on-compact gate replay the engine that ran, not the one today's
// flags would pick.
func TestVerifyAfterDaemonDefaultsChange(t *testing.T) {
	srv, _, ts := newGatedTestServer(t, 1)
	srv.Runner().DefaultScheduler = "asha"
	code, created := postJSON(t, ts.URL+"/v1/studies", `{
		"algo": "grid", "budget": 9,
		"space": {"acc": [0.82, 0.64, 0.23, 0.77, 0.15], "num_epochs": [1]},
		"start": true}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)
	waitForState(t, ts.URL, id, "done")
	verifyOK(t, ts.URL, id, "asha-promote")

	srv.Runner().DefaultScheduler = ""
	verifyOK(t, ts.URL, id, "asha-promote")
	if err := srv.CompactVerify(id); err != nil {
		t.Fatalf("CompactVerify after the default changed: %v", err)
	}
}

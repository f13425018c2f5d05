package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpo"
	"repro/internal/runtime"
	"repro/internal/store"
)

// haltingObjectives injects a slow objective that checks Halt between
// epoch-sized sleeps, so cancellation can land mid-trial.
func haltingObjectives(epochs int, pace time.Duration, executed *atomic.Int64) func(StudySpec) (hpo.Objective, error) {
	return func(StudySpec) (hpo.Objective, error) {
		return &hpo.FuncObjective{ObjName: "halting", Fn: func(ctx hpo.ObjectiveContext) (hpo.TrialMetrics, error) {
			var m hpo.TrialMetrics
			for e := 0; e < epochs; e++ {
				if ctx.Halt != nil {
					if reason := ctx.Halt(); reason != "" {
						m.Stopped, m.StopReason = true, reason
						return m, nil
					}
				}
				acc := 0.1 + 0.8*float64(e+1)/float64(epochs)
				m.Epochs, m.BestAcc, m.FinalAcc = e+1, acc, acc
				m.ValAccHistory = append(m.ValAccHistory, acc)
				if ctx.Report != nil {
					ctx.Report(e, acc)
				}
				executed.Add(1)
				time.Sleep(pace)
			}
			return m, nil
		}}, nil
	}
}

// TestServerCancelStopsRunningStudy: POST /cancel lands while trials are
// mid-flight; the study reaches the terminal canceled state, stops
// executing, and is not resumable by Resume().
func TestServerCancelStopsRunningStudy(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	var executed atomic.Int64
	srv.Runner().Objectives = haltingObjectives(50, 10*time.Millisecond, &executed)

	spec := `{"name":"c","algo":"grid","space":{"num_epochs":[1,2,3,4,5,6,7,8]},"start":true}`
	code, created := postJSON(t, ts.URL+"/v1/studies", spec)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)

	// Wait until trials are actually executing.
	deadline := time.Now().Add(20 * time.Second)
	for executed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if executed.Load() == 0 {
		t.Fatal("study never started executing")
	}

	code, cancelView := postJSON(t, ts.URL+"/v1/studies/"+id+"/cancel", "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel = %d %v", code, cancelView)
	}
	waitForState(t, ts.URL, id, "canceled")

	// Execution stops promptly: the epoch counter settles far below the
	// unpruned total (8 trials × 50 epochs).
	settled := executed.Load()
	time.Sleep(100 * time.Millisecond)
	if after := executed.Load(); after > settled+2 {
		t.Fatalf("study kept executing after cancel: %d → %d epochs", settled, after)
	}
	if total := executed.Load(); total >= 8*50 {
		t.Fatalf("cancel saved no work: %d epochs executed", total)
	}

	// Canceled is terminal: no re-queue on resume, and a second cancel
	// conflicts.
	if n, err := srv.Runner().Resume(); err != nil || n != 0 {
		t.Fatalf("resume after cancel = %d studies, %v", n, err)
	}
	code, _ = postJSON(t, ts.URL+"/v1/studies/"+id+"/cancel", "")
	if code != http.StatusConflict {
		t.Fatalf("second cancel = %d, want 409", code)
	}
	// An explicit restart is still allowed and runs to completion (swap in
	// a fast objective before starting — execute reads Objectives).
	srv.Runner().Objectives = haltingObjectives(1, 0, &executed)
	code, _ = postJSON(t, ts.URL+"/v1/studies/"+id+"/start", "")
	if code != http.StatusAccepted {
		t.Fatalf("restart after cancel = %d", code)
	}
	waitForState(t, ts.URL, id, "done")
}

// TestServerCancelCreatedStudyConflicts: a study that was never started
// cannot be canceled.
func TestServerCancelCreatedStudyConflicts(t *testing.T) {
	_, ts, _ := newTestServer(t)
	code, created := postJSON(t, ts.URL+"/v1/studies", gridSpec)
	if code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	id := created["id"].(string)
	code, out := postJSON(t, ts.URL+"/v1/studies/"+id+"/cancel", "")
	if code != http.StatusConflict {
		t.Fatalf("cancel created study = %d %v, want 409", code, out)
	}
	code, _ = postJSON(t, ts.URL+"/v1/studies/nope/cancel", "")
	if code != http.StatusNotFound {
		t.Fatalf("cancel unknown study = %d, want 404", code)
	}
}

// TestServerBearerTokenAuth: with a token configured, every endpoint except
// /healthz requires the Authorization header — reads included.
func TestServerBearerTokenAuth(t *testing.T) {
	journal, err := store.OpenJournal(filepath.Join(t.TempDir(), "j.journal"), store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	factory := func(spec StudySpec) (*runtime.Runtime, func(), error) {
		rt, err := runtime.New(runtime.Options{Cluster: cluster.Local(1), Backend: runtime.Real})
		if err != nil {
			return nil, nil, err
		}
		return rt, rt.Shutdown, nil
	}
	srv := New(journal, factory, 1)
	srv.SetAuthToken("sekrit")
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	do := func(method, path, token string) int {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Healthz stays open for liveness probes.
	if code := do("GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz without token = %d", code)
	}
	// Reads and writes are both gated.
	if code := do("GET", "/v1/studies", ""); code != http.StatusUnauthorized {
		t.Fatalf("list without token = %d, want 401", code)
	}
	if code := do("POST", "/v1/studies", "wrong"); code != http.StatusUnauthorized {
		t.Fatalf("create with wrong token = %d, want 401", code)
	}
	if code := do("GET", "/v1/studies", "sekrit"); code != http.StatusOK {
		t.Fatalf("list with token = %d", code)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/studies", strings.NewReader(gridSpec))
	req.Header.Set("Authorization", "Bearer sekrit")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with token = %d", resp.StatusCode)
	}
}

// TestServerPrunerSpecStreamsMetricEvents: a median-pruned study created
// through the API journals intermediate metric and prune events, visible on
// the SSE stream, and records pruned trials.
func TestServerPrunerSpecStreamsMetricEvents(t *testing.T) {
	// Needs all four trials in flight at once so the median has peers:
	// build a 4-core server instead of the shared 2-core one.
	journal, err := store.OpenJournal(filepath.Join(t.TempDir(), "j.journal"), store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	factory := func(spec StudySpec) (*runtime.Runtime, func(), error) {
		rt, err := runtime.New(runtime.Options{Cluster: cluster.Local(4), Backend: runtime.Real})
		if err != nil {
			return nil, nil, err
		}
		return rt, rt.Shutdown, nil
	}
	srv := New(journal, factory, 1)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var executed atomic.Int64
	// Better configs pace faster, making median decisions deterministic
	// (same trick as the hpo lifecycle tests).
	srv.Runner().Objectives = func(StudySpec) (hpo.Objective, error) {
		return &hpo.FuncObjective{ObjName: "paced", Fn: func(ctx hpo.ObjectiveContext) (hpo.TrialMetrics, error) {
			const epochs = 10
			final := 0.1 * float64(ctx.Config.Int("acc10", 0))
			pace := time.Duration(2+int((1-final)*6)) * time.Millisecond
			var m hpo.TrialMetrics
			for e := 0; e < epochs; e++ {
				if reason := ctx.Halt(); reason != "" {
					m.Stopped, m.StopReason = true, reason
					return m, nil
				}
				v := final * float64(e+1) / epochs
				m.Epochs, m.BestAcc, m.FinalAcc = e+1, v, v
				m.ValAccHistory = append(m.ValAccHistory, v)
				ctx.Report(e, v)
				executed.Add(1)
				time.Sleep(pace)
			}
			return m, nil
		}}, nil
	}

	spec := `{"name":"p","algo":"grid","space":{"acc10":[2,4,6,8]},` +
		`"pruner":"median","pruner_warmup":2,"start":true}`
	code, created := postJSON(t, ts.URL+"/v1/studies", spec)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)
	waitForState(t, ts.URL, id, "done")

	if total := executed.Load(); total >= 4*10 {
		t.Fatalf("pruner saved no epochs: %d executed", total)
	}
	// The SSE stream replays the full lifecycle including metric and prune
	// events (the stream closes once the study is terminal).
	resp, err := http.Get(ts.URL + "/v1/studies/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	stream := string(body)
	if !strings.Contains(stream, "event: metric") {
		t.Fatalf("no metric events on the SSE stream:\n%.400s", stream)
	}
	if !strings.Contains(stream, "event: prune") {
		t.Fatalf("no prune events on the SSE stream:\n%.400s", stream)
	}
	if !strings.Contains(stream, `"pruned":true`) {
		t.Fatalf("no pruned trial record on the SSE stream:\n%.400s", stream)
	}
}

// TestSpecPrunerValidation: unknown pruners are a 400 at creation time.
func TestSpecPrunerValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	bad := `{"algo":"grid","space":{"x":[1]},"pruner":"bogus"}`
	code, out := postJSON(t, ts.URL+"/v1/studies", bad)
	if code != http.StatusBadRequest {
		t.Fatalf("bad pruner = %d %v, want 400", code, out)
	}
}

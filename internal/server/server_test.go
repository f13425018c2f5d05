package server

import (
	"bufio"
	"bytes"
	"encoding/json"

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

// newTestServer wires a server over a temp journal with a 2-core local
// runtime per study and a fast synthetic objective counting executions.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *atomic.Int32) {
	t.Helper()
	journal, err := store.OpenJournal(filepath.Join(t.TempDir(), "j.journal"), store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	factory := func(spec StudySpec) (*runtime.Runtime, func(), error) {
		rt, err := runtime.New(runtime.Options{Cluster: cluster.Local(2), Backend: runtime.Real})
		if err != nil {
			return nil, nil, err
		}
		return rt, rt.Shutdown, nil
	}
	srv := New(journal, factory, 2)
	var calls atomic.Int32
	srv.Runner().Objectives = func(spec StudySpec) (hpo.Objective, error) {
		return &hpo.FuncObjective{ObjName: "fast", Fn: func(ctx hpo.ObjectiveContext) (hpo.TrialMetrics, error) {
			calls.Add(1)
			acc := 0.3 + 0.1*float64(ctx.Config.Int("num_epochs", 0)%5)
			return hpo.TrialMetrics{BestAcc: acc, FinalAcc: acc, Epochs: 1, ValAccHistory: []float64{acc}}, nil
		}}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, &calls
}

const gridSpec = `{"name":"t","algo":"grid","space":{"num_epochs":[1,2,3,4]},"dataset":"mnist","samples":64}`

func postJSON(t *testing.T, url, body string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func waitForState(t *testing.T, base, id, want string) map[string]interface{} {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		code, study := getJSON(t, base+"/v1/studies/"+id)
		if code != http.StatusOK {
			t.Fatalf("get study: HTTP %d", code)
		}
		switch study["state"].(string) {
		case want:
			return study
		case "failed":
			if want != "failed" {
				t.Fatalf("study failed: %v", study["error"])
			}
			return study
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("study %s never reached state %q", id, want)
	return nil
}

func TestServerStudyLifecycle(t *testing.T) {
	_, ts, calls := newTestServer(t)

	// Healthz before any work.
	code, health := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, health)
	}

	// Create without starting.
	code, created := postJSON(t, ts.URL+"/v1/studies", gridSpec)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)
	if created["state"].(string) != "created" {
		t.Fatalf("fresh study state = %v", created["state"])
	}

	// List includes it.
	_, list := getJSON(t, ts.URL+"/v1/studies")
	if n := len(list["studies"].([]interface{})); n != 1 {
		t.Fatalf("list holds %d studies", n)
	}

	// Start and wait for completion.
	code, _ = postJSON(t, ts.URL+"/v1/studies/"+id+"/start", "")
	if code != http.StatusAccepted {
		t.Fatalf("start = %d", code)
	}
	study := waitForState(t, ts.URL, id, "done")
	if got := int(study["trials"].(float64)); got != 4 {
		t.Fatalf("trials = %d, want 4", got)
	}
	if calls.Load() != 4 {
		t.Fatalf("objective calls = %d", calls.Load())
	}
	if study["best_acc"].(float64) <= 0 {
		t.Fatalf("best_acc missing: %v", study)
	}

	// Trials endpoint returns them, ordered by id.
	_, trials := getJSON(t, ts.URL+"/v1/studies/"+id+"/trials")
	ids := trials["trials"].([]interface{})
	if len(ids) != 4 {
		t.Fatalf("trials endpoint: %d", len(ids))
	}

	// Spec is echoed back on GET.
	if study["spec"] == nil {
		t.Fatal("study view lost its spec")
	}
}

func TestServerErrorsAreTyped(t *testing.T) {
	_, ts, _ := newTestServer(t)
	if code, _ := getJSON(t, ts.URL+"/v1/studies/missing"); code != http.StatusNotFound {
		t.Fatalf("missing study = %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/studies/missing/start", ""); code != http.StatusNotFound {
		t.Fatalf("start missing = %d", code)
	}
	if code, body := postJSON(t, ts.URL+"/v1/studies", `{"algo":"nope","space":{"x":[1]}}`); code != http.StatusBadRequest {
		t.Fatalf("bad algo = %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/studies", `{"algo":"grid"}`); code != http.StatusBadRequest {
		t.Fatal("missing space accepted")
	}
	if code, _ := postJSON(t, ts.URL+"/v1/studies", `not json`); code != http.StatusBadRequest {
		t.Fatal("garbage accepted")
	}
	if code, _ := postJSON(t, ts.URL+"/v1/studies", `{"algo":"grid","space":{"x":[1]},"bogus_field":1}`); code != http.StatusBadRequest {
		t.Fatal("unknown field accepted")
	}
}

// TestServerRejectsOversizedSamples: more samples than the real dataset
// has is a bad spec at create (HTTP 400, nothing journaled), checked
// without synthesizing data, rather than an allocation the size of
// samples × features at execution.
func TestServerRejectsOversizedSamples(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for _, spec := range []string{
		`{"algo":"grid","space":{"num_epochs":[1]},"dataset":"mnist","samples":100000000,"start":true}`,
		`{"algo":"grid","space":{"num_epochs":[1]},"dataset":"cifar10","samples":60001}`,
	} {
		code, body := postJSON(t, ts.URL+"/v1/studies", spec)
		if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "samples") {
			t.Fatalf("create %s = %d %v, want 400 naming samples", spec, code, body)
		}
	}
	if _, list := getJSON(t, ts.URL+"/v1/studies"); len(list["studies"].([]interface{})) != 0 {
		t.Fatalf("a refused spec was journaled: %v", list)
	}
}

// TestServerResumeFailsOversizedSamplesStudy: a study journaled with such
// a spec before create checked samples fails cleanly when the runner
// resumes it, before any trial runs, instead of re-queuing the same
// allocation on every restart.
func TestServerResumeFailsOversizedSamplesStudy(t *testing.T) {
	srv, ts, calls := newTestServer(t)
	spec := `{"algo":"grid","space":{"num_epochs":[1]},"dataset":"mnist","samples":100000000}`
	if err := srv.store.CreateStudy(store.StudyMeta{ID: "big", Name: "big", Spec: []byte(spec)}); err != nil {
		t.Fatal(err)
	}
	if err := srv.store.SetStudyState("big", store.StateRunning, "", nil); err != nil {
		t.Fatal(err)
	}
	if n, err := srv.Runner().Resume(); err != nil || n != 1 {
		t.Fatalf("Resume = %d, %v; want the one interrupted study", n, err)
	}
	study := waitForState(t, ts.URL, "big", "failed")
	if msg, _ := study["error"].(string); !strings.Contains(msg, "samples") {
		t.Fatalf("failure does not name samples: %q", msg)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d trials ran for a study that must fail first", n)
	}
}

func TestServerCreateWithStartRunsAsync(t *testing.T) {
	_, ts, _ := newTestServer(t)
	spec := `{"algo":"grid","space":{"num_epochs":[1,2]},"start":true}`
	code, created := postJSON(t, ts.URL+"/v1/studies", spec)
	if code != http.StatusCreated {
		t.Fatalf("create+start = %d", code)
	}
	waitForState(t, ts.URL, created["id"].(string), "done")
}

func TestServerMemoizationAcrossStudies(t *testing.T) {
	_, ts, calls := newTestServer(t)
	spec := `{"algo":"grid","space":{"num_epochs":[1,2,3,4]},"start":true}`
	_, first := postJSON(t, ts.URL+"/v1/studies", spec)
	waitForState(t, ts.URL, first["id"].(string), "done")
	if calls.Load() != 4 {
		t.Fatalf("first study calls = %d", calls.Load())
	}

	// Second study over the identical space: every config is answered from
	// the journal's memo index, nothing re-executes.
	_, second := postJSON(t, ts.URL+"/v1/studies", spec)
	study := waitForState(t, ts.URL, second["id"].(string), "done")
	if calls.Load() != 4 {
		t.Fatalf("memoized study re-ran objectives: %d calls", calls.Load())
	}
	if got := int(study["memoized"].(float64)); got != 4 {
		t.Fatalf("memoized = %d, want 4", got)
	}

	// Opting out re-executes.
	off := `{"algo":"grid","space":{"num_epochs":[1,2,3,4]},"start":true,"memoize":false}`
	_, third := postJSON(t, ts.URL+"/v1/studies", off)
	waitForState(t, ts.URL, third["id"].(string), "done")
	if calls.Load() != 8 {
		t.Fatalf("memoize:false still reused results: %d calls", calls.Load())
	}

	// A different objective (other dataset) must never reuse results, even
	// for identical configs.
	cifar := `{"algo":"grid","space":{"num_epochs":[1,2,3,4]},"dataset":"cifar10","start":true}`
	_, fourth := postJSON(t, ts.URL+"/v1/studies", cifar)
	study = waitForState(t, ts.URL, fourth["id"].(string), "done")
	if calls.Load() != 12 {
		t.Fatalf("memo leaked across datasets: %d calls", calls.Load())
	}
	if study["memoized"] != nil {
		t.Fatalf("cross-dataset study reported memoized = %v", study["memoized"])
	}
}

func TestServerEventStream(t *testing.T) {
	_, ts, _ := newTestServer(t)
	spec := `{"algo":"grid","space":{"num_epochs":[1,2,3]},"start":true}`
	_, created := postJSON(t, ts.URL+"/v1/studies", spec)
	id := created["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/studies/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var trialEvents, stateEvents int
	var sawDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: trial":
			trialEvents++
		case line == "event: state":
			stateEvents++
		case strings.HasPrefix(line, "data: "):
			var ev store.Event
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
			if ev.StudyID != id {
				t.Fatalf("foreign study event: %+v", ev)
			}
			if ev.State == store.StateDone {
				sawDone = true
			}
		}
	}
	// The stream terminates on its own once the study is done.
	if trialEvents != 3 {
		t.Fatalf("trial events = %d, want 3", trialEvents)
	}
	if !sawDone || stateEvents < 2 {
		t.Fatalf("lifecycle events missing: states=%d done=%v", stateEvents, sawDone)
	}

	// Resuming from a sequence number replays only later events.
	resp2, err := http.Get(ts.URL + "/v1/studies/" + id + "/events?since=1000000")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if len(bytes.TrimSpace(body)) != 0 {
		t.Fatalf("since-future stream should be empty, got %q", body)
	}
}

func TestSpecDefaults(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"space":{"x":[1,2]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Algo != "grid" || spec.Dataset != "mnist" || spec.Cores != 1 || spec.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", spec)
	}
	if !spec.memoize() {
		t.Fatal("memoize must default on")
	}
	f := false
	spec.Memoize = &f
	if spec.memoize() {
		t.Fatal("explicit memoize=false ignored")
	}
}

func TestStudyIDsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewStudyID()
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
	if !strings.HasPrefix(NewStudyID(), "s") {
		t.Fatal("id prefix changed")
	}
}

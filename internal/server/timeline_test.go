package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
)

// newRungTestServer wires a server whose objective streams per-epoch
// reports and honours rung promotion, on a 1-slot runtime — the setup the
// async rung mode exists for.
func newRungTestServer(t *testing.T) (*store.Journal, *httptest.Server) {
	t.Helper()
	_, journal, ts := newGatedTestServer(t, 1)
	return journal, ts
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestTimelineEndpointAsyncRungStudy: a completed async-rung study's
// timeline is rebuilt from the journal alone — it reproduces the journaled
// promote/prune sequence, is byte-identical across calls, and its Paraver
// export parses back.
func TestTimelineEndpointAsyncRungStudy(t *testing.T) {
	journal, ts := newRungTestServer(t)

	code, created := postJSON(t, ts.URL+"/v1/studies", `{
		"algo": "hyperband", "scheduler": "hyperband", "rung_mode": "async",
		"budget": 9, "seed": 42,
		"space": {"acc": {"type": "float", "min": 0.1, "max": 0.9}},
		"start": true}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)
	waitForState(t, ts.URL, id, "done")

	code, body := getBody(t, ts.URL+"/v1/studies/"+id+"/timeline")
	if code != http.StatusOK {
		t.Fatalf("timeline = %d:\n%.400s", code, body)
	}
	_, body2 := getBody(t, ts.URL+"/v1/studies/"+id+"/timeline")
	if !bytes.Equal(body, body2) {
		t.Fatal("repeated timeline calls are not byte-identical")
	}
	if strings.Contains(string(body), "_hb") {
		t.Fatalf("timeline leaks hidden scheduler keys:\n%.600s", body)
	}

	var tl trace.StudyTimeline
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatalf("timeline does not decode: %v", err)
	}
	if tl.StudyID != id || tl.State != "done" {
		t.Fatalf("timeline header = %q/%q", tl.StudyID, tl.State)
	}

	// Every journaled promotion appears as a promote marker with the same
	// epoch and budget on its trial's row, and vice versa.
	promos := journal.StudyPromotes(id)
	if len(promos) == 0 {
		t.Fatal("study journaled no promotions")
	}
	type key struct{ trial, epoch, budget int }
	fromJournal := map[key]int{}
	for _, p := range promos {
		fromJournal[key{p.TrialID, p.Epoch, p.Budget}]++
	}
	fromTimeline := map[key]int{}
	prunedRows := 0
	for _, row := range tl.Rows {
		for _, m := range row.Markers {
			if m.Kind == "promote" {
				fromTimeline[key{row.Trial, m.Epoch, m.Budget}]++
			}
		}
		if row.Outcome == "pruned" {
			prunedRows++
		}
		// A promoted row has one segment per granted budget.
		var promoted int
		for _, m := range row.Markers {
			if m.Kind == "promote" {
				promoted++
			}
		}
		if len(row.Segments) != promoted+1 {
			t.Fatalf("trial %d: %d segments for %d promotions", row.Trial, len(row.Segments), promoted)
		}
	}
	if len(fromJournal) != len(fromTimeline) {
		t.Fatalf("promotions: journal %v vs timeline %v", fromJournal, fromTimeline)
	}
	for k, n := range fromJournal {
		if fromTimeline[k] != n {
			t.Fatalf("promotion %+v: journal %d, timeline %d", k, n, fromTimeline[k])
		}
	}
	// Rung-driven hyperband halts the losers: they surface as pruned rows.
	trials, err := journal.StudyTrials(id)
	if err != nil {
		t.Fatal(err)
	}
	stopped := 0
	for _, tr := range trials {
		if tr.Stopped {
			stopped++
		}
	}
	if prunedRows != stopped {
		t.Fatalf("pruned rows = %d, journal stopped trials = %d", prunedRows, stopped)
	}

	// The Paraver export parses back through the trace reader with one
	// Running interval per timeline segment.
	code, prv := getBody(t, ts.URL+"/v1/studies/"+id+"/timeline.prv")
	if code != http.StatusOK {
		t.Fatalf("timeline.prv = %d", code)
	}
	rec, err := trace.ReadParaver(bytes.NewReader(prv))
	if err != nil {
		t.Fatalf("timeline.prv does not parse: %v", err)
	}
	segments := 0
	for _, row := range tl.Rows {
		segments += len(row.Segments)
	}
	if got := rec.ComputeStats().TasksRun; got != segments {
		t.Fatalf("paraver intervals = %d, timeline segments = %d", got, segments)
	}
}

// TestTimelineSurvivesCompaction: after compaction rewrites a terminal
// study to summary records, the timeline endpoint still serves every trial
// (zero-width rows) instead of erroring.
func TestTimelineSurvivesCompaction(t *testing.T) {
	journal, ts := newRungTestServer(t)

	code, created := postJSON(t, ts.URL+"/v1/studies", `{
		"algo": "hyperband", "scheduler": "hyperband", "rung_mode": "async",
		"budget": 9, "seed": 7,
		"space": {"acc": {"type": "float", "min": 0.1, "max": 0.9}},
		"start": true}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)
	waitForState(t, ts.URL, id, "done")

	trials, err := journal.StudyTrials(id)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/admin/compact", ""); code != http.StatusOK {
		t.Fatalf("compact = %d", code)
	}

	code, body := getBody(t, ts.URL+"/v1/studies/"+id+"/timeline")
	if code != http.StatusOK {
		t.Fatalf("timeline after compaction = %d:\n%.400s", code, body)
	}
	var tl trace.StudyTimeline
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Rows) != len(trials) {
		t.Fatalf("timeline rows after compaction = %d, trials = %d", len(tl.Rows), len(trials))
	}
	if tl.MakespanNS != 0 {
		t.Fatalf("compacted timeline keeps a nonzero makespan: %d", tl.MakespanNS)
	}
}

// TestTimelineNotFound: unknown studies map to 404.
func TestTimelineNotFound(t *testing.T) {
	_, ts := newRungTestServer(t)
	if code, _ := getBody(t, ts.URL+"/v1/studies/nope/timeline"); code != http.StatusNotFound {
		t.Fatalf("timeline for unknown study = %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/studies/nope/timeline.prv"); code != http.StatusNotFound {
		t.Fatalf("timeline.prv for unknown study = %d, want 404", code)
	}
}

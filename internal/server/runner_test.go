package server

import (
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/hpo"
)

// TestRunnerConcurrentStartExecutesOnce: eight racing Starts of one study
// launch one execution holding one admission slot — the reservation, not
// a separate job table, decides "already queued or running".
func TestRunnerConcurrentStartExecutesOnce(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	g := newGate()
	srv.Runner().Objectives = g.objectives

	code, created := postJSON(t, ts.URL+"/v1/studies",
		`{"name":"dup","algo":"grid","space":{"num_epochs":[1,2]},"memoize":false}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- srv.Runner().Start(id)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent Start = %v, want nil (idempotent)", err)
		}
	}

	// Both trials fit the 2-core runtime, so one execution reaches two
	// objective calls; every duplicate execution would add two more.
	g.waitStarted(t, 2)
	adm := srv.Runner().Admission()
	if n, d := adm.Granted(), adm.Depth(); n != 1 || d != 0 {
		t.Fatalf("admission holds %d granted / %d waiting, want 1 / 0", n, d)
	}
	g.release("dup")
	waitForState(t, ts.URL, id, "done")
	// Close waits for every study goroutine, duplicates included.
	if !srv.Runner().Close(10 * time.Second) {
		t.Fatal("runner did not drain")
	}
	if n := len(g.started()); n != 2 {
		t.Fatalf("objective ran %d times, want 2 (one execution of a 2-trial grid)", n)
	}
}

// TestRunnerStartAfterClose: a closed runner refuses starts with
// hpo.ErrAdmissionAborted, which the start endpoint maps to 503, and
// journals nothing.
func TestRunnerStartAfterClose(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	code, created := postJSON(t, ts.URL+"/v1/studies", gridSpec)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)
	if !srv.Runner().Close(time.Second) {
		t.Fatal("idle runner did not drain")
	}
	if err := srv.Runner().Start(id); !errors.Is(err, hpo.ErrAdmissionAborted) {
		t.Fatalf("Start after Close = %v, want ErrAdmissionAborted", err)
	}
	code, out := postJSON(t, ts.URL+"/v1/studies/"+id+"/start", "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST start after Close = %d %v, want 503", code, out)
	}
	if _, study := getJSON(t, ts.URL+"/v1/studies/"+id); study["state"] != "created" {
		t.Fatalf("refused start journaled state %v, want created", study["state"])
	}
}

// TestStudyViewJobField: the view's job field mirrors the admission
// reservation — "queued" while waiting for a slot, "running" once
// granted, absent when the study holds none.
func TestStudyViewJobField(t *testing.T) {
	srv, ts, _ := newTestServer(t) // 2 execution slots
	t.Cleanup(func() { srv.Runner().Close(5 * time.Second) })
	g := newGate()
	srv.Runner().Objectives = g.objectives

	names := []string{"a", "b", "c"}
	var ids []string
	for _, name := range names {
		code, created := postJSON(t, ts.URL+"/v1/studies",
			`{"name":"`+name+`","algo":"grid","space":{"num_epochs":[1]},"memoize":false,"start":true}`)
		if code != http.StatusCreated {
			t.Fatalf("create %s = %d %v", name, code, created)
		}
		ids = append(ids, created["id"].(string))
	}
	g.waitStarted(t, 2)

	job := func(id string) interface{} {
		_, study := getJSON(t, ts.URL+"/v1/studies/"+id)
		return study["job"]
	}
	if got := job(ids[0]); got != "running" {
		t.Fatalf("mid-run job = %v, want running", got)
	}
	if got := job(ids[2]); got != "queued" {
		t.Fatalf("third study job = %v, want queued (two slots)", got)
	}

	for _, name := range names {
		g.release(name)
	}
	for _, id := range ids {
		waitForState(t, ts.URL, id, "done")
	}
	// The slot is released just after the terminal state is journaled.
	adm := srv.Runner().Admission()
	deadline := time.Now().Add(20 * time.Second)
	for adm.Granted() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d slots still granted after every study finished", adm.Granted())
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, study := getJSON(t, ts.URL+"/v1/studies/"+ids[0])
	if v, ok := study["job"]; ok {
		t.Fatalf("done study still reports job %v", v)
	}
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hpo"
	"repro/internal/runtime"
	"repro/internal/store"
)

// TestSpecSchedulerValidation: the rung-driven spec surface rejects the
// combinations the study layer cannot honour.
func TestSpecSchedulerValidation(t *testing.T) {
	base := `"space": {"acc": {"type": "float", "min": 0.1, "max": 0.9}}`
	bad := []string{
		fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "hyperband", "pruner": "median"}`, base),
		fmt.Sprintf(`{%s, "algo": "random", "scheduler": "hyperband"}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "bogus"}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "hyperband", "cv_folds": 3}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "hyperband", "rung_mode": "bogus"}`, base),
		fmt.Sprintf(`{%s, "algo": "random", "scheduler": "asha", "rung_mode": "sync"}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "none", "rung_mode": "async"}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "none", "pruner": "median"}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "pruner": "median"}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "asha"}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "cv_folds": 3}`, base),
		fmt.Sprintf(`{%s, "algo": "random", "cv_folds": 3, "rung_mode": "async"}`, base),
	}
	for _, body := range bad {
		if _, err := ParseSpec([]byte(body)); err == nil {
			t.Errorf("spec accepted: %s", body)
		}
	}
	good := []string{
		fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "hyperband", "budget": 9}`, base),
		fmt.Sprintf(`{%s, "algo": "random", "scheduler": "asha", "budget": 9}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "budget": 9}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "rung_mode": "async"}`, base),
		fmt.Sprintf(`{%s, "algo": "random", "rung_mode": "async"}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "hyperband", "rung_mode": "async"}`, base),
		fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "hyperband", "rung_mode": "sync"}`, base),
		fmt.Sprintf(`{%s, "algo": "random", "scheduler": "asha", "rung_mode": "async"}`, base),
	}
	for _, body := range good {
		if _, err := ParseSpec([]byte(body)); err != nil {
			t.Errorf("spec rejected: %s: %v", body, err)
		}
	}
}

// TestRungModeDaemonFallback: a spec without rung_mode follows the
// daemon's -rung-mode default, an explicit field always wins, and the sync
// daemon default never breaks an asha spec (which has no sync mode).
func TestRungModeDaemonFallback(t *testing.T) {
	base := `"space": {"acc": {"type": "float", "min": 0.1, "max": 0.9}}, "budget": 9`
	hb := fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "hyperband"}`, base)
	hbSync := fmt.Sprintf(`{%s, "algo": "hyperband", "scheduler": "hyperband", "rung_mode": "sync"}`, base)
	asha := fmt.Sprintf(`{%s, "algo": "random", "scheduler": "asha"}`, base)

	buildAsync := func(body, defMode string) bool {
		t.Helper()
		spec, err := ParseSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		sampler, sched, err := spec.BuildDecisions("", defMode, "")
		if err != nil {
			t.Fatal(err)
		}
		if sched == nil {
			t.Fatalf("no scheduler built for %s", body)
		}
		if rh, ok := sampler.(*hpo.RungHyperband); ok {
			return rh.AsyncRungs()
		}
		return true // asha is always async
	}
	if buildAsync(hb, "") {
		t.Error("empty daemon default built an async scheduler, want sync")
	}
	if !buildAsync(hb, "async") {
		t.Error("daemon default async ignored for a spec without rung_mode")
	}
	if buildAsync(hbSync, "async") {
		t.Error("explicit rung_mode sync lost to the daemon default")
	}
	// The sync daemon default must not fail asha specs — it is a
	// hyperband preference, and asha simply has no synchronous mode.
	if !buildAsync(asha, "sync") {
		t.Error("asha under a sync daemon default should stay per-arrival")
	}
}

// TestResolutionTable pins the one resolution of scheduler, rung mode and
// pruner: for every (spec, daemon -scheduler/-rung-mode/-pruner) row,
// BuildDecisions (what the runner executes) and ReplayParams (what verify
// replays) agree on the expected engine, or both reject with ErrBadSpec.
// The spec Pin persists at create resolves to the same engine under the
// row's defaults and under different ones.
func TestResolutionTable(t *testing.T) {
	type want struct{ scheduler, mode, pruner string }
	bad := want{scheduler: "bad"}
	cases := []struct {
		spec                     string
		defSched, defMode, defPr string
		want                     want
	}{
		{spec: `"algo": "hyperband"`, want: want{"hyperband", "sync", ""}},
		{spec: `"algo": "hyperband"`, defMode: "async", want: want{"hyperband", "async", ""}},
		{spec: `"algo": "hyperband", "scheduler": "hyperband"`, defSched: "asha", want: want{"hyperband", "sync", ""}},
		{spec: `"algo": "hyperband", "rung_mode": "sync"`, defMode: "async", want: want{"hyperband", "sync", ""}},
		{spec: `"algo": "hyperband"`, defPr: "median", want: want{"hyperband", "sync", ""}},
		{spec: `"algo": "hyperband", "scheduler": "none"`, want: bad},
		{spec: `"algo": "hyperband", "scheduler": "asha"`, want: bad},
		{spec: `"algo": "hyperband", "cv_folds": 3`, want: bad},
		{spec: `"algo": "hyperband", "pruner": "median"`, want: bad},
		{spec: `"algo": "random"`, defSched: "hyperband", want: want{"", "", ""}},
		{spec: `"algo": "random"`, defSched: "hyperband", defPr: "median", want: want{"", "", "median"}},
		{spec: `"algo": "random", "scheduler": "hyperband"`, want: bad},
		{spec: `"algo": "random"`, defSched: "asha", defMode: "sync", want: want{"asha", "async", ""}},
		{spec: `"algo": "random", "scheduler": "asha", "rung_mode": "sync"`, want: bad},
		{spec: `"algo": "random", "pruner": "median"`, defSched: "asha", want: want{"", "", "median"}},
		{spec: `"algo": "random", "cv_folds": 3`, defSched: "asha", defPr: "asha", want: want{"", "", "asha"}},
		{spec: `"algo": "random", "scheduler": "asha", "cv_folds": 3`, want: bad},
		{spec: `"algo": "random", "scheduler": "asha", "pruner": "median"`, want: bad},
		{spec: `"algo": "random", "rung_mode": "async"`, want: bad},
		{spec: `"algo": "random", "rung_mode": "async"`, defSched: "asha", want: want{"asha", "async", ""}},
		{spec: `"algo": "grid", "pruner": "none"`, defPr: "median", want: want{"", "", ""}},
	}
	for _, c := range cases {
		name := fmt.Sprintf("{%s} -scheduler=%q -rung-mode=%q -pruner=%q", c.spec, c.defSched, c.defMode, c.defPr)
		var spec StudySpec
		body := fmt.Sprintf(`{%s, "budget": 9, "space": {"acc": {"type": "float", "min": 0.1, "max": 0.9}}}`, c.spec)
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}

		sampler, sched, err := spec.BuildDecisions(c.defSched, c.defMode, c.defPr)
		var built want
		switch s := sched.(type) {
		case nil:
		case *hpo.RungHyperband:
			built.scheduler, built.mode = "hyperband", hpo.RungSync
			if s.AsyncRungs() {
				built.mode = hpo.RungAsync
			}
			if sampler != hpo.Sampler(s) {
				t.Errorf("%s: RungHyperband is not also the sampler (%T)", name, sampler)
			}
		case *hpo.ASHAScheduler:
			built.scheduler, built.mode = "asha", hpo.RungAsync
		case *hpo.MedianStop, *hpo.ASHA:
			built.pruner = s.Name()
		default:
			t.Fatalf("%s: unexpected scheduler %T", name, sched)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Errorf("%s: BuildDecisions error %v does not wrap ErrBadSpec", name, err)
			}
			built = bad
		}
		if built != c.want {
			t.Errorf("%s: BuildDecisions = %+v (err %v), want %+v", name, built, err, c.want)
		}

		p, err := spec.ReplayParams(c.defSched, c.defMode, c.defPr)
		replayed := want{p.Scheduler, p.RungMode, p.Pruner}
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Errorf("%s: ReplayParams error %v does not wrap ErrBadSpec", name, err)
			}
			replayed = bad
		}
		if replayed != c.want {
			t.Errorf("%s: ReplayParams = %+v (err %v), want %+v", name, replayed, err, c.want)
		}

		raw, err := spec.Pin(c.defSched, c.defMode, c.defPr)
		if (err != nil) != (c.want == bad) {
			t.Errorf("%s: Pin error %v, want %+v", name, err, c.want)
			continue
		}
		if err != nil {
			continue
		}
		pinned, err := ParseSpec(raw)
		if err != nil {
			t.Fatalf("%s: pinned spec %s does not parse: %v", name, raw, err)
		}
		for _, d := range [][3]string{{c.defSched, c.defMode, c.defPr}, {"", "", ""}, {"asha", "async", "median"}, {"hyperband", "sync", "asha"}} {
			p, err := pinned.ReplayParams(d[0], d[1], d[2])
			if got := (want{p.Scheduler, p.RungMode, p.Pruner}); err != nil || got != c.want {
				t.Errorf("%s: pinned spec under defaults %q resolves to %+v (err %v), want %+v", name, d, got, err, c.want)
			}
		}
	}
}

// TestRungModeWithoutActiveSchedulerIsRejected: a spec that explicitly
// sets rung_mode but activates no scheduler (no scheduler field, a
// non-hyperband algo, and no daemon default) is a 400 at create, where the
// resolution is pinned, instead of silently running without rungs. A spec
// journaled before pinning existed still fails its study with a clear
// error at execution. algo hyperband needs no scheduler field: it is the
// rung scheduler, so the same rung_mode runs to completion and verifies in
// that mode.
func TestRungModeWithoutActiveSchedulerIsRejected(t *testing.T) {
	journal, ts := newRungTestServer(t)

	code, created := postJSON(t, ts.URL+"/v1/studies", `{
		"algo": "hyperband", "rung_mode": "async", "budget": 9, "seed": 42,
		"space": {"acc": {"type": "float", "min": 0.1, "max": 0.9}},
		"start": true}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)
	waitForState(t, ts.URL, id, "done")
	if promos := journal.StudyPromotes(id); len(promos) == 0 {
		t.Fatal("algo hyperband study journaled no promotions")
	}
	code, body := postVerify(t, ts.URL+"/v1/studies/"+id+"/verify")
	var resp VerifyResponse
	if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK {
		t.Fatalf("verify = %d %v:\n%.400s", code, err, body)
	}
	if !resp.OK || resp.Report == nil || resp.Report.Mode != "hyperband-rung/async" {
		t.Fatalf("verify = ok %v error %q report %+v, want ok in mode hyperband-rung/async", resp.OK, resp.Error, resp.Report)
	}

	unpinned := `{"algo": "random", "rung_mode": "async", "budget": 9,
		"space": {"acc": {"type": "float", "min": 0.1, "max": 0.9}}}`
	code, created = postJSON(t, ts.URL+"/v1/studies", unpinned)
	if msg, _ := created["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "rung_mode") {
		t.Fatalf("create = %d %v, want 400 explaining the dropped rung_mode", code, created)
	}

	if err := journal.CreateStudy(store.StudyMeta{ID: "legacy", Spec: []byte(unpinned)}); err != nil {
		t.Fatal(err)
	}
	if code, out := postJSON(t, ts.URL+"/v1/studies/legacy/start", ``); code != http.StatusAccepted {
		t.Fatalf("start legacy = %d %v", code, out)
	}
	study := waitForState(t, ts.URL, "legacy", "failed")
	if msg, _ := study["error"].(string); !strings.Contains(msg, "rung_mode") {
		t.Fatalf("failure does not explain the dropped rung_mode: %q", msg)
	}
}

// TestServerAsyncRungSmallClusterE2E drives an async rung-mode Hyperband
// study through the HTTP control plane on a single-slot runtime — the
// capacity the sync mode rejects outright. The study must finish, journal
// promotions, and expose only public config keys through the API.
func TestServerAsyncRungSmallClusterE2E(t *testing.T) {
	journal, err := store.OpenJournal(filepath.Join(t.TempDir(), "j"), store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	factory := func(spec StudySpec) (*runtime.Runtime, func(), error) {
		// One slot: smaller than every bracket of R=9, η=3.
		rt, err := runtime.New(runtime.Options{Cluster: cluster.Local(1), Backend: runtime.Real})
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

	if promos := journal.StudyPromotes(id); len(promos) == 0 {
		t.Fatal("async study journaled no promotions")
	}
	trials, err := journal.StudyTrials(id)
	if err != nil {
		t.Fatal(err)
	}
	continued := 0
	for _, tr := range trials {
		if tr.Epochs > tr.Config["num_epochs"].(int) {
			continued++
		}
		for k := range tr.Config {
			if strings.HasPrefix(k, "_") {
				t.Fatalf("trial config leaks internal key %q through the store: %v", k, tr.Config)
			}
		}
	}
	if continued == 0 {
		t.Fatalf("no trial continued past its budget on the 1-slot runtime: %+v", trials)
	}

	// The API view is clean too.
	resp, err := http.Get(ts.URL + "/v1/studies/" + id + "/trials")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := make([]byte, 1<<20)
	n, _ := io.ReadFull(resp.Body, body)
	if api := string(body[:n]); strings.Contains(api, `"_hb`) {
		t.Fatalf("API response leaks hidden scheduler keys:\n%.600s", api)
	}
}

// TestServerRungSchedulerE2E drives a rung-driven Hyperband study through
// the HTTP control plane: the spec's scheduler field selects rung mode, the
// study runs to completion, promotions land in the journal, and the SSE
// stream carries promote events alongside the final trial records.
func TestServerRungSchedulerE2E(t *testing.T) {
	journal, err := store.OpenJournal(filepath.Join(t.TempDir(), "j"), store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	factory := func(spec StudySpec) (*runtime.Runtime, func(), error) {
		// 9 slots: the largest bracket of R=9, η=3 runs as one rung.
		rt, err := runtime.New(runtime.Options{Cluster: cluster.Local(9), Backend: runtime.Real})
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

	code, created := postJSON(t, ts.URL+"/v1/studies", `{
		"algo": "hyperband", "scheduler": "hyperband", "budget": 9, "seed": 42,
		"space": {"acc": {"type": "float", "min": 0.1, "max": 0.9}},
		"start": true}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)
	waitForState(t, ts.URL, id, "done")

	// Promotions were journaled (3+1 in bracket 0, 1 in bracket 1).
	promos := journal.StudyPromotes(id)
	if len(promos) != 5 {
		t.Fatalf("journal holds %d promotions, want 5: %+v", len(promos), promos)
	}

	// The trial records show continuation: winners trained past their
	// submitted budget, and at least one reached R.
	trials, err := journal.StudyTrials(id)
	if err != nil {
		t.Fatal(err)
	}
	continued, reachedR := 0, 0
	for _, tr := range trials {
		base := int(tr.Config["num_epochs"].(int))
		if tr.Epochs > base {
			continued++
		}
		if tr.Epochs == 9 && base < 9 {
			reachedR++
		}
	}
	if continued == 0 || reachedR == 0 {
		t.Fatalf("no promoted trials in the journal (continued=%d reachedR=%d): %+v", continued, reachedR, trials)
	}

	// The SSE stream carries the promote events.
	resp, err := http.Get(ts.URL + "/v1/studies/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	stream := string(buf[:n])
	if !strings.Contains(stream, "event: promote") {
		t.Fatalf("no promote events on the SSE stream:\n%.600s", stream)
	}
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	var d dist
	for i := 1; i <= 200; i++ {
		d.add(float64(i))
	}
	if pct, v := d.tail(); pct != 95 || v != 190 {
		t.Errorf("tail of 1..200 = p%v %v, want p95 190", pct, v)
	}
	if got := d.p50(); got != 100.5 {
		t.Errorf("p50 of 1..200 = %v, want 100.5", got)
	}
	var few dist
	few.add(3)
	few.add(1)
	if pct, v := few.tail(); pct != 50 || v != 1 {
		t.Errorf("tail of two samples = p%v %v, want the median p50 1", pct, v)
	}
	var none dist
	if none.p50() != 0 || none.pct(95) != 0 {
		t.Error("an empty distribution must read 0, not NaN")
	}
}

const promBefore = `# HELP hpo_store_appends_total Journal records appended, by record type.
# TYPE hpo_store_appends_total counter
hpo_store_appends_total{type="metric"} 10
hpo_store_appends_total{type="trial"} 2
hpod_http_requests_total{endpoint="GET /v1/studies/{id}",code="200"} 4
hpo_runtime_busy_cores 2
`

const promAfter = `hpo_store_appends_total{type="metric"} 110
hpo_store_appends_total{type="trial"} 7
hpo_store_appends_total{type="prune"} 3
hpod_http_requests_total{endpoint="GET /v1/studies/{id}",code="200"} 9
hpod_http_requests_total{endpoint="POST /v1/studies",code="503"} 1
hpod_http_requests_total{endpoint="say \"hi\"\n",code="200"} 1
hpo_runtime_busy_cores 1
lat_bucket{le="0.001"} 0
lat_bucket{le="0.01"} 50
lat_bucket{le="0.1"} 100
lat_bucket{le="+Inf"} 100
lat_sum 3.5
lat_count 100
`

func TestPromParseAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if got := d.sum("hpo_store_appends_total", "type", "metric"); got != 100 {
		t.Errorf("metric appends delta = %v, want 100", got)
	}
	if got := d.sum("hpo_store_appends_total"); got != 108 {
		t.Errorf("all appends delta = %v, want 108 (a series new in the window counts from 0)", got)
	}
	if got := d.sum("hpod_http_requests_total", "endpoint", "GET /v1/studies/{id}"); got != 5 {
		t.Errorf("braces inside a label value: delta = %v, want 5", got)
	}
	if got := after.sum("hpod_http_requests_total", "endpoint", "say \"hi\"\n"); got != 1 {
		t.Errorf("escaped label value not decoded: %v", got)
	}
	fives := d.sumWhere("hpod_http_requests_total", func(l map[string]string) bool { return strings.HasPrefix(l["code"], "5") })
	if fives != 1 {
		t.Errorf("5xx = %v, want 1", fives)
	}
	if got := after.sum("hpo_runtime_busy_cores"); got != 1 {
		t.Errorf("gauge = %v, want its last value 1", got)
	}
	if got := after.quantile("lat", 0.5); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("p50 = %v, want 0.01 (the bucket bound holding rank 50)", got)
	}
	if got := after.quantile("lat", 0.75); math.Abs(got-0.055) > 1e-12 {
		t.Errorf("p75 = %v, want 0.055 (interpolated inside 0.01..0.1)", got)
	}
	if got := before.quantile("lat", 0.5); got != 0 {
		t.Errorf("quantile of an absent histogram = %v, want 0", got)
	}
	if _, err := parseProm(strings.NewReader("broken{le=\"1\" 3\n")); err == nil {
		t.Error("an unterminated label set must not parse")
	}
}

func TestSSEParser(t *testing.T) {
	stream := ": comment\n" +
		"id: 7\nevent: metric\ndata: {\"seq\":7}\n\n" +
		"id: 8\r\nevent: state\r\ndata: line1\r\ndata: line2\r\n\r\n" +
		"event: custom\ndata: " + strings.Repeat("x", 100_000) + "\n\n" +
		"id: 9\nevent: trial\ndata: unterminated"
	var got []sseEvent
	err := readSSE(strings.NewReader(stream), func(ev sseEvent) error {
		ev.Data = append([]byte(nil), ev.Data...)
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d events, want 3 (the unterminated last one is dropped)", len(got))
	}
	if got[0].ID != 7 || got[0].Type != "metric" || string(got[0].Data) != `{"seq":7}` {
		t.Errorf("event 0 = %+v", got[0])
	}
	if got[1].ID != 8 || got[1].Type != "state" || string(got[1].Data) != "line1\nline2" {
		t.Errorf("event 1 = %+v (CRLF and multi-line data)", got[1])
	}
	if got[2].Type != "custom" || len(got[2].Data) != 100_000 {
		t.Errorf("event 2: type %q, %d data bytes (a line longer than the buffer)", got[2].Type, len(got[2].Data))
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2: 30..40 counts once
		{ID: 4, Parent: 1, Start: 90, End: 130}, // runs past its parent: clipped to 90..100
		{ID: 5, Parent: 2, Start: 10, End: 20},
	}
	selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - (30 + 20 + 10), 2: 20, 3: 30, 4: 40, 5: 10} {
		if got := spans[id-1].Self; got != want {
			t.Errorf("self time of span %d = %d, want %d", id, got, want)
		}
	}
	var off *tracer
	if id := off.begin("x", "", 0); id != 0 || off.count() != 0 {
		t.Error("a nil tracer must record nothing")
	}
	off.end(0)
}

func TestPaceAccountsLateness(t *testing.T) {
	// A fake clock: the second send stalls for 25 ms, so the sends due at
	// 20 and 30 ms start late, and the one at 100 ms is on time again.
	clock := time.Duration(0)
	now := func() time.Duration { return clock }
	sleep := func(d time.Duration) { clock += d }
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 100 * ms, 500 * ms}
	var sent []int
	late := pace(due, 200*ms, now, sleep, func(i int) bool {
		sent = append(sent, i)
		if i == 1 {
			clock += 25 * ms
		} else {
			clock += ms
		}
		return true
	})
	want := []time.Duration{0, 0, 15 * ms, 6 * ms, 0}
	if len(late) != len(want) {
		t.Fatalf("made %d sends (%v), want %d: the one due after the guard is not sent", len(late), sent, len(want))
	}
	for i := range want {
		if late[i] != want[i] {
			t.Errorf("send %d began %v late, want %v", i, late[i], want[i])
		}
	}
	stopped := pace(due, time.Second, now, sleep, func(i int) bool { return i < 1 })
	if len(stopped) != 2 {
		t.Errorf("send returning false must stop the loop after that send, made %d", len(stopped))
	}
}

func TestPlanIsSeededAndRepeatsPointAtOriginals(t *testing.T) {
	w := workloadByName("churn_restart")
	a, err := w.plan(7, 400)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.plan(7, 400)
	c, _ := w.plan(8, 400)
	repeats := 0
	for i := range a {
		if string(a[i].spec) != string(b[i].spec) || a[i].due != b[i].due {
			t.Fatalf("submission %d differs between two plans of one seed", i)
		}
		if i > 0 && a[i].due <= a[i-1].due {
			t.Fatalf("due times must ascend: %v after %v", a[i].due, a[i-1].due)
		}
		if j := a[i].repeatOf; j >= 0 {
			repeats++
			if j >= i || a[j].repeatOf >= 0 || string(a[j].spec) != string(a[i].spec) {
				t.Fatalf("repeat %d must copy an earlier original, points at %d", i, j)
			}
		}
	}
	if string(a[0].spec) == string(c[0].spec) {
		t.Error("another seed must give other specs")
	}
	if share := float64(repeats) / 400; share < 0.2 || share > 0.4 {
		t.Errorf("repeat share %.2f, want about 0.3", share)
	}
	if rate := 400 / a[399].due; math.Abs(rate-w.studiesPerSecond)/w.studiesPerSecond > 0.1 {
		t.Errorf("offered rate %.1f/s, want about %.1f/s", rate, w.studiesPerSecond)
	}
	if got := hyperbandTrials(9, 3); got != 17 {
		t.Errorf("hyperbandTrials(9, 3) = %d, want 9+5+3", got)
	}
	if got := hyperbandTrials(81, 3); got != 81+34+15+8+5 {
		t.Errorf("hyperbandTrials(81, 3) = %d, want 143", got)
	}
}

// The registry in metrics.go and workloads.go is the source of the names;
// BENCHMARK.json must say the same, inside the contract's limits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, file, reg []metricDef) {
		if len(file) != len(reg) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the registry %d", kind, len(file), len(reg))
		}
		for i, d := range reg {
			if file[i] != d {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the registry %+v", kind, i, file[i], d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %+v: name, unit or direction outside the contract's charset", kind, d)
			}
			if seen[d.Name] {
				t.Errorf("name %q is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the registry %q", i, doc.Workloads[i].Name, w.name)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q: name or why outside the contract", w.name)
		}
		seen[w.name] = true
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	e := env{NumCPU: 2, GOMAXPROCS: 2, JournalFS: "ext4"}
	wr := func(eps, ms float64) workloadResult {
		return workloadResult{Name: "train_heavy", EndToEnd: map[string]value{
			"epochs_per_s": {eps, "1/s"}, "study_ms_p50": {ms, "ms"}}}
	}
	a := resultDoc{Env: e, Seconds: 20, Workloads: []workloadResult{wr(100, 50)}}
	b := resultDoc{Env: e, Seconds: 20, Workloads: []workloadResult{wr(95, 52)}}
	if over, err := compareDocs(io.Discard, a, b); err != nil || over != 0 {
		t.Errorf("5%% fewer epochs/s and 4%% slower studies are inside their bounds: over=%d err=%v", over, err)
	}
	b.Workloads[0] = wr(70, 70)
	if over, err := compareDocs(io.Discard, a, b); err != nil || over != 2 {
		t.Errorf("30%% worse on both must count 2 over bound: over=%d err=%v", over, err)
	}
	if over, _ := compareDocs(io.Discard, b, a); over != 0 {
		t.Errorf("an improvement is never over bound, got %d", over)
	}
	b.Env.NumCPU = 4
	if _, err := compareDocs(io.Discard, a, b); err == nil {
		t.Error("results from 2 and 4 cores must not be compared")
	}
	b.Env = e
	b.Env.JournalFS = "tmpfs"
	if _, err := compareDocs(io.Discard, a, b); err == nil {
		t.Error("results from ext4 and tmpfs must not be compared")
	}
}

// TestSmoke runs every workload at a tenth of its count, traced, against
// a real child hpod: boot, load, kill and restart, reads, checks, journal
// join, probes and the trace file.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	defer cleanupAll()
	h, err := newHarness(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func(d time.Duration) { probeBudget = d }(probeBudget)
	probeBudget = 10 * time.Millisecond
	for _, w := range workloads {
		p, r, err := h.pass(ctx, w, 1, 20, 0.1, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Refused != 0 {
			t.Errorf("%s: correct=%v failed=%d refused=%d violations=%v", w.name, r.Correct, r.Failed, r.Refused, r.Violations)
		}
		if len(r.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(r.PerLayer), len(perLayer))
		}
		for name, v := range r.PerLayer {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v.Value)
			}
		}
		e2e := p.endToEndValues()
		for _, d := range endToEnd {
			if v := e2e[d.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end %s = %v, want a positive number", w.name, d.Name, v)
			}
		}
		if comm := r.PerLayer["breakdown.comm_share"].Value; (comm > 0) != (w.name == "remote_rungs") {
			t.Errorf("%s: breakdown.comm_share = %v; only remote_rungs crosses comm", w.name, comm)
		}
		if w.restart && p.recoveryS <= 0 {
			t.Errorf("%s: no recovery time after the kill", w.name)
		}
		if _, err := os.Stat("out/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if _, err := os.Stat(p.journalDir); !os.IsNotExist(err) {
			t.Errorf("%s: journal directory %s survived the pass", w.name, p.journalDir)
		}
	}
}

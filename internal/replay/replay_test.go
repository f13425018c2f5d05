package replay_test

// The determinism contract suite: every scheduler mode's golden journal
// must replay byte-identically — twice, and under causally-valid record
// permutations — with exactly-once epoch accounting and typed failures.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/hpo"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/store"
)

// verifyFixture runs one Verify pass and fails the test with a rendered
// divergence diff on any error.
func verifyFixture(t *testing.T, name string, recs []store.StudyRecord, p replay.Params) *replay.Report {
	t.Helper()
	rep, err := replay.Verify(fixtureStudy, recs, p)
	if err != nil {
		var div *replay.DivergenceError
		if errors.As(err, &div) {
			t.Fatalf("fixture %s: %v\n%s", name, err, div.Diff())
		}
		t.Fatalf("fixture %s: %v", name, err)
	}
	return rep
}

// trialScoped returns the trial id a record is about, if any.
func trialScoped(r store.StudyRecord) (int, bool) {
	switch {
	case r.Metric != nil:
		return r.Metric.TrialID, true
	case r.Prune != nil:
		return r.Prune.TrialID, true
	case r.Promote != nil:
		return r.Promote.TrialID, true
	case r.Trial != nil:
		return r.Trial.ID, true
	}
	return 0, false
}

// TestGoldenFixturesReplay is the core contract: every scheduler mode's
// committed journal replays byte-identically, twice, with clean accounting.
func TestGoldenFixturesReplay(t *testing.T) {
	for _, f := range fixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			_, recs := loadFixture(t, f.name)
			rep1 := verifyFixture(t, f.name, recs, f.params(t))
			rep2 := verifyFixture(t, f.name, recs, f.params(t))

			// Replaying twice is not just error-free: the derived logs are
			// identical objects, decision for decision.
			if !decisionsEqual(rep1.Replayed, rep2.Replayed) {
				t.Fatalf("two replays of the same stream disagree:\n%s\nvs\n%s",
					formatDecisions(rep1.Replayed), formatDecisions(rep2.Replayed))
			}
			if len(rep1.Warnings) != 0 {
				t.Fatalf("unexpected warnings: %v", rep1.Warnings)
			}
			if rep1.Runs != f.runs {
				t.Fatalf("Runs = %d, want %d", rep1.Runs, f.runs)
			}

			// Modes that take scheduler decisions must actually have taken
			// some — an empty log would vacuously pass the byte-match.
			if len(rep1.Recorded) == 0 {
				t.Fatal("fixture recorded no scheduler decisions")
			}

			// Exactly-once epoch accounting: the metric stream, the replay
			// engine's count and the per-trial sums all agree.
			metricCount := 0
			epochsByTrial := map[int]int{}
			finalEpochs := 0
			seenFinal := map[int]bool{}
			for _, r := range recs {
				if r.Metric != nil {
					metricCount++
					epochsByTrial[r.Metric.TrialID]++
				}
				if r.Trial != nil && !seenFinal[r.Trial.ID] {
					seenFinal[r.Trial.ID] = true
					finalEpochs += r.Trial.Epochs
				}
			}
			if rep1.Epochs != metricCount {
				t.Fatalf("Report.Epochs = %d, want %d metric records", rep1.Epochs, metricCount)
			}
			if finalEpochs != metricCount {
				t.Fatalf("final records claim %d epochs, journal streamed %d — epochs double-counted or lost", finalEpochs, metricCount)
			}
			for tid, n := range epochsByTrial {
				if got := seenFinal[tid]; !got {
					t.Fatalf("trial %d streamed %d epochs but has no final record", tid, n)
				}
			}

			// The granted-budget ladders are strictly increasing by
			// construction (Verify would have failed otherwise); every
			// trial with metrics has one.
			for tid := range epochsByTrial {
				ladder, ok := rep1.Budgets[tid]
				if !ok || len(ladder) == 0 {
					t.Fatalf("trial %d has no budget ladder", tid)
				}
			}
		})
	}
}

// TestAsyncBracketPermutation re-interleaves the async journal's brackets
// — a causally valid reordering (rung pools are per-bracket, per-trial
// record order preserved) — and requires replay to still verify, with
// identical per-trial decision histories.
func TestAsyncBracketPermutation(t *testing.T) {
	_, recs := loadFixture(t, "async-rung")
	p := fixtureParams(t, "async-rung")
	rep := verifyFixture(t, "async-rung", recs, p)

	bracketOf := func(tid int) string {
		key := rep.Bindings[tid]
		if i := strings.IndexByte(key, '-'); i > 0 {
			return key[:i]
		}
		t.Fatalf("trial %d has no bracket binding (key %q)", tid, key)
		return ""
	}

	// Stable-partition trial-scoped records by bracket, then concatenate
	// the brackets in reverse discovery order behind the study records.
	var head []store.StudyRecord
	byBracket := map[string][]store.StudyRecord{}
	var order []string
	for _, r := range recs {
		tid, ok := trialScoped(r)
		if !ok {
			head = append(head, r)
			continue
		}
		b := bracketOf(tid)
		if _, seen := byBracket[b]; !seen {
			order = append(order, b)
		}
		byBracket[b] = append(byBracket[b], r)
	}
	if len(order) < 2 {
		t.Fatalf("fixture has %d brackets; permutation needs at least 2", len(order))
	}
	permuted := append([]store.StudyRecord(nil), head...)
	for i := len(order) - 1; i >= 0; i-- {
		permuted = append(permuted, byBracket[order[i]]...)
	}

	rep2 := verifyFixture(t, "async-rung/permuted", permuted, p)

	// The global log reorders with the brackets, but each trial's own
	// decision history is untouched.
	perTrial := func(ds []replay.Decision) map[int][]replay.Decision {
		m := map[int][]replay.Decision{}
		for _, d := range ds {
			m[d.TrialID] = append(m[d.TrialID], d)
		}
		return m
	}
	a, b := perTrial(rep.Replayed), perTrial(rep2.Replayed)
	if len(a) != len(b) {
		t.Fatalf("permutation changed the decided-trial set: %d vs %d", len(a), len(b))
	}
	for tid := range a {
		if !decisionsEqual(a[tid], b[tid]) {
			t.Fatalf("trial %d decisions changed under permutation:\n%s\nvs\n%s",
				tid, formatDecisions(a[tid]), formatDecisions(b[tid]))
		}
	}
}

// TestSyncMetricBlockPermutation reorders arrivals inside each barrier
// window of the synchronous journal (per-trial order preserved). Sync
// decisions fire at the barrier, so the decision log must stay
// byte-identical, not merely per-trial identical.
func TestSyncMetricBlockPermutation(t *testing.T) {
	_, recs := loadFixture(t, "sync-rung")
	p := fixtureParams(t, "sync-rung")
	rep := verifyFixture(t, "sync-rung", recs, p)

	// Within each maximal run of consecutive metric records, group by
	// descending trial id (stable, so each trial's epochs stay ordered).
	permuted := append([]store.StudyRecord(nil), recs...)
	for i := 0; i < len(permuted); {
		if permuted[i].Metric == nil {
			i++
			continue
		}
		j := i
		for j < len(permuted) && permuted[j].Metric != nil {
			j++
		}
		sort.SliceStable(permuted[i:j], func(a, b int) bool {
			return permuted[i+a].Metric.TrialID > permuted[i+b].Metric.TrialID
		})
		i = j
	}

	rep2 := verifyFixture(t, "sync-rung/permuted", permuted, p)
	if !decisionsEqual(rep.Replayed, rep2.Replayed) {
		t.Fatalf("barrier-window permutation changed the decision log:\n%s\nvs\n%s",
			formatDecisions(rep.Replayed), formatDecisions(rep2.Replayed))
	}
}

// TestDriftFixturesReplayIdentically is the version-drift contract: the
// pre-delta journal (plain val_acc_history) and its post-delta twin
// (val_acc_q first differences) decode to the same stream and replay to
// the same decisions.
func TestDriftFixturesReplayIdentically(t *testing.T) {
	if *update {
		regenerateOnce(t, "drift-delta", filepath.Join("testdata", "drift-delta"))
	}
	_, plain := loadFixture(t, "async-rung")
	_, delta := loadFixture(t, "drift-delta")

	// The twin must actually be encoded, or this test proves nothing.
	segs, err := filepath.Glob(filepath.Join("testdata", "drift-delta", "studies", fixtureStudy, "segment-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("drift-delta fixture has no segments: %v", err)
	}
	encoded := false
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), `"val_acc_q"`) {
			encoded = true
		}
	}
	if !encoded {
		t.Fatal("drift-delta fixture holds no val_acc_q records")
	}

	p := fixtureParams(t, "async-rung")
	repPlain := verifyFixture(t, "async-rung", plain, p)
	repDelta := verifyFixture(t, "drift-delta", delta, p)
	if !decisionsEqual(repPlain.Replayed, repDelta.Replayed) {
		t.Fatalf("history encoding changed the decision log:\n%s\nvs\n%s",
			formatDecisions(repPlain.Replayed), formatDecisions(repDelta.Replayed))
	}
	if !decisionsEqual(repPlain.Recorded, repDelta.Recorded) {
		t.Fatal("history encoding changed the recorded log")
	}
}

// TestTenantFixtureIsTagged pins that the tenant-tagged golden journal
// really carries its tenant through snapshot reads — the tag multi-tenant
// quota accounting re-derives from — and that a regeneration cannot
// silently drop it.
func TestTenantFixtureIsTagged(t *testing.T) {
	meta, recs := loadFixture(t, "tenant-async-rung")
	if meta.Tenant != "acme" {
		t.Fatalf("fixture meta.Tenant = %q, want %q", meta.Tenant, "acme")
	}
	metrics := 0
	for _, r := range recs {
		if r.Metric != nil {
			metrics++
		}
	}
	if metrics == 0 {
		t.Fatal("tenant fixture streams no metric records — nothing for epoch budgets to count")
	}
}

// fixtureParams returns the replay params of a named fixture.
func fixtureParams(t *testing.T, name string) replay.Params {
	t.Helper()
	for _, f := range fixtures() {
		if f.name == name {
			return f.params(t)
		}
	}
	t.Fatalf("unknown fixture %s", name)
	return replay.Params{}
}

// TestLegacyBatchHyperbandJournalIsCorrupt: testdata/batch-hyperband is a
// journal of the retired batch Hyperband sampler, which re-submitted each
// rung's survivors as fresh trials and journaled no rung decisions. Its
// spec's algo now means the rung-driven scheduler, whose members the
// re-submitted trials cannot bind to, so verification under the params
// ReplayParams resolves must fail with ErrCorrupt — never a divergence,
// never a panic. The journal is kept outside the golden list for this.
func TestLegacyBatchHyperbandJournalIsCorrupt(t *testing.T) {
	_, recs, err := store.SnapshotStudyRecords(filepath.Join("testdata", "batch-hyperband"), fixtureStudy)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := server.ParseSpec([]byte(fmt.Sprintf(`{"algo": "hyperband", "space": %s, "budget": %d, "pruner_eta": %d, "seed": %d}`,
		rungSpaceJSON, fixMaxR, fixEta, fixSeed)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.ReplayParams("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheduler != "hyperband" || p.RungMode != hpo.RungSync {
		t.Fatalf("algo hyperband resolved to scheduler %q mode %q, want hyperband/sync", p.Scheduler, p.RungMode)
	}
	_, err = replay.Verify(fixtureStudy, recs, p)
	if !errors.Is(err, replay.ErrCorrupt) || errors.Is(err, replay.ErrDivergence) {
		t.Fatalf("legacy batch journal verified with %v, want ErrCorrupt", err)
	}
	// Trials 0-8 are bracket 0's first rung either way; trial 9 is where
	// the batch sampler re-submitted a survivor instead of starting
	// bracket 1.
	if !strings.Contains(err.Error(), "trial 9: config fingerprint") {
		t.Fatalf("error does not name the first unbindable trial: %v", err)
	}
}

// TestVerifyFailuresAreTyped: tampered streams fail with the documented
// sentinel errors, never an untyped error.
func TestVerifyFailuresAreTyped(t *testing.T) {
	_, recs := loadFixture(t, "async-rung")
	p := fixtureParams(t, "async-rung")

	clone := func() []store.StudyRecord {
		out := make([]store.StudyRecord, len(recs))
		for i, r := range recs {
			out[i] = r
			if r.Metric != nil {
				m := *r.Metric
				out[i].Metric = &m
			}
			if r.Prune != nil {
				pr := *r.Prune
				out[i].Prune = &pr
			}
			if r.Promote != nil {
				pm := *r.Promote
				out[i].Promote = &pm
			}
			if r.Trial != nil {
				tr := *r.Trial
				out[i].Trial = &tr
			}
		}
		return out
	}

	t.Run("tampered-promote-budget", func(t *testing.T) {
		recs := clone()
		tampered := false
		for _, r := range recs {
			if r.Promote != nil {
				r.Promote.Budget--
				tampered = true
				break
			}
		}
		if !tampered {
			t.Fatal("fixture has no promote record")
		}
		rep, err := replay.Verify(fixtureStudy, recs, p)
		if !errors.Is(err, replay.ErrDivergence) {
			t.Fatalf("err = %v, want ErrDivergence", err)
		}
		var div *replay.DivergenceError
		if !errors.As(err, &div) || div.Diff() == "" {
			t.Fatalf("divergence carries no diff: %v", err)
		}
		if rep == nil {
			t.Fatal("failed verify returned no report")
		}
	})

	t.Run("tampered-prune-reason", func(t *testing.T) {
		recs := clone()
		tampered := false
		for _, r := range recs {
			if r.Prune != nil {
				r.Prune.Reason = "not what the scheduler said"
				tampered = true
				break
			}
		}
		if !tampered {
			t.Fatal("fixture has no prune record")
		}
		if _, err := replay.Verify(fixtureStudy, recs, p); !errors.Is(err, replay.ErrDivergence) {
			t.Fatalf("err = %v, want ErrDivergence", err)
		}
	})

	t.Run("epochs-past-ceiling", func(t *testing.T) {
		recs := clone()
		tampered := false
		for _, r := range recs {
			if r.Trial != nil && !r.Trial.Promoted {
				r.Trial.Epochs = 1000
				tampered = true
				break
			}
		}
		if !tampered {
			t.Fatal("fixture has no unpromoted final record")
		}
		if _, err := replay.Verify(fixtureStudy, recs, p); !errors.Is(err, replay.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("wrong-seed", func(t *testing.T) {
		bad := p
		bad.Seed = p.Seed + 1
		if _, err := replay.Verify(fixtureStudy, recs, bad); !errors.Is(err, replay.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt (fingerprint mismatch)", err)
		}
	})

	t.Run("malformed-record", func(t *testing.T) {
		recs := clone()
		recs = append(recs, store.StudyRecord{Seq: 1 << 40, Type: "metric"})
		if _, err := replay.Verify(fixtureStudy, recs, p); !errors.Is(err, replay.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

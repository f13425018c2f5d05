package replay_test

// Golden journal fixtures for the determinism contract suite. Each fixture
// under testdata/ is a complete journal directory produced by running a
// real journal-backed study — one per scheduler mode — and committed so the
// replay contract is pinned against the exact byte streams a release
// produced. Regenerate with:
//
//	go test ./internal/replay -run TestGoldenFixtures -update
//
// Regeneration reruns the live studies (deterministic objectives, pinned
// seeds), so decision CONTENT is stable across regenerations even though
// record timestamps and async arrival interleavings are not — the contract
// is "the journal replays against itself", not "journals are bit-stable".
//
// testdata/batch-hyperband is not a fixture: it is a journal of the retired
// batch Hyperband sampler, kept as the input of
// TestLegacyBatchHyperbandJournalIsCorrupt and never regenerated.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpo"
	"repro/internal/replay"
	"repro/internal/runtime"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "regenerate the golden journal fixtures under testdata/")

// fixtureStudy is the study id every fixture journal uses.
const fixtureStudy = "study"

const (
	fixMaxR = 9
	fixEta  = 3
	fixSeed = 42
)

// rungSpaceJSON is the continuous space the rung fixtures sample: every
// config gets a distinct "acc" driving a strict deterministic ordering.
const rungSpaceJSON = `{"acc": {"type": "float", "min": 0.1, "max": 0.9}}`

// gridSpaceJSON is the fixed-budget space the asha, median-stop and
// pruner-asha fixtures enumerate with grid search (declaration order
// preserved).
const gridSpaceJSON = `{"acc": [0.82, 0.64, 0.23, 0.77, 0.15], "num_epochs": [3]}`

func mustSpace(t *testing.T, js string) *hpo.Space {
	t.Helper()
	s, err := hpo.ParseSpaceJSON([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testRuntime(t *testing.T, cores int) *runtime.Runtime {
	t.Helper()
	rt, err := runtime.New(runtime.Options{
		Cluster: cluster.Local(cores),
		Backend: runtime.Real,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// rungValue is the deterministic metric every fixture objective reports:
// monotone in epochs, ordered by the config's acc.
func rungValue(cfg hpo.Config, epoch, maxR int) float64 {
	return cfg.Float("acc", 0) * float64(epoch+1) / float64(maxR)
}

// fixtureObjective honours the full trial-continuation contract (plans for
// the promotion ceiling, consults Proceed at boundaries, streams every
// epoch). perEpoch, when non-nil, runs before each epoch's report — the
// restart fixture uses a sleep so resumed anchors always complete before
// the first fresh boundary arrival, and the stress test injects jitter.
func fixtureObjective(maxR int, perEpoch func(epoch int)) *hpo.FuncObjective {
	return &hpo.FuncObjective{ObjName: "fixture", Fn: func(ctx hpo.ObjectiveContext) (hpo.TrialMetrics, error) {
		total := ctx.Config.Int("num_epochs", 1)
		if ctx.Proceed != nil && ctx.EpochCeiling > total {
			total = ctx.EpochCeiling
		}
		var m hpo.TrialMetrics
		for e := 0; e < total; e++ {
			if ctx.Halt != nil {
				if reason := ctx.Halt(); reason != "" {
					m.Stopped, m.StopReason = true, reason
					return m, nil
				}
			}
			if perEpoch != nil {
				perEpoch(e)
			}
			v := rungValue(ctx.Config, e, maxR)
			m.Epochs = e + 1
			m.FinalAcc, m.BestAcc = v, v
			m.ValAccHistory = append(m.ValAccHistory, v)
			if ctx.Report != nil {
				ctx.Report(e, v)
			}
			if e+1 < total && ctx.Proceed != nil && !ctx.Proceed(e+1) {
				m.Stopped, m.StopReason = true, "epoch budget exhausted"
				return m, nil
			}
		}
		return m, nil
	}}
}

// fixture ties a generator to its replay params.
type fixture struct {
	name     string
	generate func(t *testing.T, dir string)
	params   func(t *testing.T) replay.Params
	// runs is the expected Report.Runs (fixtures without state records
	// form a single run).
	runs int
}

// runFixtureStudy opens a journal at dir, creates the fixture study and
// runs one live study against it with the given options (Recorder is
// filled in). setState controls whether a state:running record precedes
// the run — server-driven studies write one, CLI studies do not.
func runFixtureStudy(t *testing.T, dir string, cores int, setState bool, opts hpo.StudyOptions) {
	t.Helper()
	j, err := store.OpenJournal(dir, store.JournalOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if _, err := j.GetStudy(fixtureStudy); err != nil {
		if err := j.CreateStudy(store.StudyMeta{ID: fixtureStudy}); err != nil {
			t.Fatal(err)
		}
	}
	if setState {
		if err := j.SetStudyState(fixtureStudy, store.StateRunning, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	rt := testRuntime(t, cores)
	defer rt.Shutdown()
	opts.Runtime = rt
	opts.Recorder = j.Recorder(fixtureStudy, "replay-fixture")
	st, err := hpo.NewStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
}

func fixtures() []fixture {
	return []fixture{
		{
			name: "sync-rung",
			generate: func(t *testing.T, dir string) {
				space := mustSpace(t, rungSpaceJSON)
				rh := hpo.NewRungHyperband(space, fixMaxR, fixEta, fixSeed)
				runFixtureStudy(t, dir, 9, false, hpo.StudyOptions{
					Sampler: rh, Scheduler: rh, Objective: fixtureObjective(fixMaxR, nil),
				})
			},
			params: func(t *testing.T) replay.Params {
				return replay.Params{Scheduler: "hyperband", RungMode: hpo.RungSync,
					Space: mustSpace(t, rungSpaceJSON), Budget: fixMaxR, Eta: fixEta, Seed: fixSeed}
			},
			runs: 1,
		},
		{
			name: "async-rung",
			generate: func(t *testing.T, dir string) {
				space := mustSpace(t, rungSpaceJSON)
				rh := hpo.NewRungHyperbandAsync(space, fixMaxR, fixEta, fixSeed)
				runFixtureStudy(t, dir, 1, false, hpo.StudyOptions{
					Sampler: rh, Scheduler: rh, Objective: fixtureObjective(fixMaxR, nil),
				})
			},
			params: func(t *testing.T) replay.Params {
				return replay.Params{Scheduler: "hyperband", RungMode: hpo.RungAsync,
					Space: mustSpace(t, rungSpaceJSON), Budget: fixMaxR, Eta: fixEta, Seed: fixSeed}
			},
			runs: 1,
		},
		{
			name: "asha",
			generate: func(t *testing.T, dir string) {
				space := mustSpace(t, gridSpaceJSON)
				runFixtureStudy(t, dir, 1, false, hpo.StudyOptions{
					Sampler:   hpo.NewGridSearch(space),
					Scheduler: hpo.NewASHAScheduler(fixEta, 1, fixMaxR),
					Objective: fixtureObjective(fixMaxR, nil),
				})
			},
			params: func(t *testing.T) replay.Params {
				return replay.Params{Scheduler: "asha", Budget: fixMaxR, Eta: fixEta, MinResource: 1}
			},
			runs: 1,
		},
		{
			name: "median-stop",
			generate: func(t *testing.T, dir string) {
				space := mustSpace(t, gridSpaceJSON)
				pr, err := hpo.NewPruner("median", 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				runFixtureStudy(t, dir, 1, false, hpo.StudyOptions{
					Sampler: hpo.NewGridSearch(space), Scheduler: pr, Objective: fixtureObjective(fixMaxR, nil),
				})
			},
			params: func(t *testing.T) replay.Params {
				return replay.Params{Pruner: "median"}
			},
			runs: 1,
		},
		{
			// The prune-only ASHA rule: never promotes, counts only strictly
			// better incumbents. Distinct from the promoting "asha" fixture.
			name: "pruner-asha",
			generate: func(t *testing.T, dir string) {
				space := mustSpace(t, gridSpaceJSON)
				pr, err := hpo.NewPruner("asha", 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				runFixtureStudy(t, dir, 1, false, hpo.StudyOptions{
					Sampler: hpo.NewGridSearch(space), Scheduler: pr, Objective: fixtureObjective(fixMaxR, nil),
				})
			},
			params: func(t *testing.T) replay.Params {
				return replay.Params{Pruner: "asha"}
			},
			runs: 1,
		},
		{
			name: "tenant-async-rung",
			generate: func(t *testing.T, dir string) {
				// The async-rung run, but the study is created tenant-tagged
				// and server-style (state records) first — the golden journal
				// the tenancy contract replays: tenant and epoch accounting
				// must ride the same record stream every other fixture pins.
				j, err := store.OpenJournal(dir, store.JournalOptions{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				if err := j.CreateStudy(store.StudyMeta{ID: fixtureStudy, Tenant: "acme"}); err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				space := mustSpace(t, rungSpaceJSON)
				rh := hpo.NewRungHyperbandAsync(space, fixMaxR, fixEta, fixSeed)
				runFixtureStudy(t, dir, 1, true, hpo.StudyOptions{
					Sampler: rh, Scheduler: rh, Objective: fixtureObjective(fixMaxR, nil),
				})
			},
			params: func(t *testing.T) replay.Params {
				return replay.Params{Scheduler: "hyperband", RungMode: hpo.RungAsync,
					Space: mustSpace(t, rungSpaceJSON), Budget: fixMaxR, Eta: fixEta, Seed: fixSeed}
			},
			runs: 1,
		},
		{
			name: "restart-async-rung",
			generate: func(t *testing.T, dir string) {
				// Two server-style runs over one journal: run 1 completes the
				// study, run 2 resumes it — succeeded trials anchor the rung
				// pools, pruned ones rerun under fresh ids. The per-epoch
				// sleep keeps the replay contract's anchor-timing assumption
				// honest: anchors (instant checkpoint completions) always
				// land before the first fresh boundary report.
				space := mustSpace(t, rungSpaceJSON)
				for run := 0; run < 2; run++ {
					rh := hpo.NewRungHyperbandAsync(space, fixMaxR, fixEta, fixSeed)
					runFixtureStudy(t, dir, 18, true, hpo.StudyOptions{
						Sampler: rh, Scheduler: rh,
						Objective: fixtureObjective(fixMaxR, func(int) { time.Sleep(5 * time.Millisecond) }),
					})
				}
			},
			params: func(t *testing.T) replay.Params {
				return replay.Params{Scheduler: "hyperband", RungMode: hpo.RungAsync,
					Space: mustSpace(t, rungSpaceJSON), Budget: fixMaxR, Eta: fixEta, Seed: fixSeed}
			},
			runs: 2,
		},
	}
}

// fixtureDir returns the committed journal directory for a fixture,
// regenerating it first under -update.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	dir := filepath.Join("testdata", name)
	if *update {
		regenerateOnce(t, name, dir)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatalf("fixture %s missing (run with -update to generate): %v", name, err)
	}
	return dir
}

var regenerated = map[string]bool{}

func regenerateOnce(t *testing.T, name, dir string) {
	t.Helper()
	if regenerated[name] {
		return
	}
	regenerated[name] = true
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if name == "drift-delta" {
		// Derived fixture: the async-rung journal with every long trial
		// history re-encoded in the post-delta val_acc_q form.
		src := fixtureDir(t, "async-rung")
		copyDir(t, src, dir)
		deltaEncodeFixture(t, dir)
		return
	}
	for _, f := range fixtures() {
		if f.name == name {
			f.generate(t, dir)
			// The flock file is an open-time artifact, not journal state.
			_ = os.Remove(filepath.Join(dir, "LOCK"))
			return
		}
	}
	t.Fatalf("unknown fixture %s", name)
}

// loadFixture reads a fixture's record stream (read-only, no lock).
func loadFixture(t *testing.T, name string) (store.StudyMeta, []store.StudyRecord) {
	t.Helper()
	meta, recs, err := store.SnapshotStudyRecords(fixtureDir(t, name), fixtureStudy)
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return meta, recs
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// deltaEncodeFixture rewrites every trial record's val_acc_history of 8+
// epochs into the quantized first-difference val_acc_q form — the exact
// mechanical transformation compaction applies — producing the post-drift
// twin of a pre-drift journal.
func deltaEncodeFixture(t *testing.T, dir string) {
	t.Helper()
	segDir := filepath.Join(dir, "studies", fixtureStudy)
	segs, err := filepath.Glob(filepath.Join(segDir, "segment-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for _, line := range splitLines(raw) {
			var rec map[string]json.RawMessage
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			if tr, ok := rec["trial"]; ok {
				var trial map[string]json.RawMessage
				if err := json.Unmarshal(tr, &trial); err != nil {
					t.Fatal(err)
				}
				var hist []float64
				if h, ok := trial["val_acc_history"]; ok {
					if err := json.Unmarshal(h, &hist); err != nil {
						t.Fatal(err)
					}
				}
				if len(hist) >= 8 {
					q := make([]int64, len(hist))
					prev := int64(0)
					for i, v := range hist {
						cur := roundQ(v)
						q[i] = cur - prev
						prev = cur
					}
					delete(trial, "val_acc_history")
					qj, err := json.Marshal(q)
					if err != nil {
						t.Fatal(err)
					}
					trial["val_acc_q"] = qj
					tj, err := json.Marshal(trial)
					if err != nil {
						t.Fatal(err)
					}
					rec["trial"] = tj
				}
			}
			lj, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, lj...)
			out = append(out, '\n')
		}
		if err := os.WriteFile(seg, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// roundQ quantizes one accuracy to the journal's 1e-9 grid.
func roundQ(v float64) int64 {
	if v >= 0 {
		return int64(v*1e9 + 0.5)
	}
	return int64(v*1e9 - 0.5)
}

func splitLines(raw []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range raw {
		if b == '\n' {
			if i > start {
				out = append(out, raw[start:i])
			}
			start = i + 1
		}
	}
	if start < len(raw) {
		out = append(out, raw[start:])
	}
	return out
}

// decisionsEqual compares two decision logs under the byte-match contract.
func decisionsEqual(a, b []replay.Decision) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// formatDecisions renders a decision log for failure messages.
func formatDecisions(ds []replay.Decision) string {
	s := ""
	for i, d := range ds {
		s += fmt.Sprintf("  [%d] %s\n", i, d)
	}
	return s
}

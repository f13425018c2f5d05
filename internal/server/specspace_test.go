package server

// The spec-space differential guard: a seeded generator draws study specs
// over algo × scheduler × rung_mode × pruner × cv_folds × space (with and
// without num_epochs) × target × memoize, together with the daemon's
// -scheduler/-rung-mode/-pruner defaults, and runs each through a real
// Runner on a 1–2 slot runtime. Every spec create accepts must end done,
// or failed with a typed error; every done study must verify under the
// defaults it ran with and again after they change. CI's fuzz job runs it
// with -fuzz for a bounded time; plain `go test` runs the seed corpus.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/hpo"
	"repro/internal/store"
)

// The spec dimensions. Empty fields are drawn twice as often: they are
// where the daemon defaults apply, and most other combinations are 400s.
var (
	specAlgos     = []string{"grid", "random", "bayes", "tpe", "hyperband"}
	specScheds    = []string{"", "", "none", "hyperband", "asha"}
	specRungModes = []string{"", "", "sync", "async"}
	specDefModes  = []string{"", "sync", "async"}
	specPruners   = []string{"", "", "none", "median", "asha"}
	specFolds     = []int{0, 0, 3}
	specSpaces    = []string{`{"acc": [0.82, 0.64, 0.23, 0.77, 0.15], "num_epochs": [1, 3]}`, `{"acc": [0.82, 0.64, 0.23, 0.77, 0.15, 0.91]}`, `{"acc": {"type": "float", "min": 0.1, "max": 0.9}}`}
	specTargets   = []float64{0, 0.2}
	specMemoize   = []string{"", `, "memoize": true`, `, "memoize": false`}
	specBudgets   = []int{3, 9}
	specDefScheds = []string{"", "asha", "hyperband", "none"}
	specDefPrs    = []string{"", "median", "asha", "none"}
)

// specCase is one drawn point of the spec space plus the daemon defaults
// and runtime width it runs under.
type specCase struct {
	body                     string
	defSched, defMode, defPr string
	slots                    int
	flipped                  [3]string // different defaults to verify under afterwards
}

// decodeSpecCase maps bytes onto the spec space, one byte per dimension
// (missing bytes read as 0, the first option).
func decodeSpecCase(data []byte) specCase {
	at := func(i, n int) int {
		if i < len(data) {
			return int(data[i]) % n
		}
		return 0
	}
	c := specCase{
		defSched: specDefScheds[at(9, len(specDefScheds))],
		defMode:  specDefModes[at(10, len(specDefModes))],
		defPr:    specDefPrs[at(11, len(specDefPrs))],
		slots:    1 + at(12, 2),
	}
	c.flipped = [3]string{
		specDefScheds[(at(9, len(specDefScheds))+1)%len(specDefScheds)],
		specDefModes[(at(10, len(specDefModes))+1)%len(specDefModes)],
		specDefPrs[(at(11, len(specDefPrs))+1)%len(specDefPrs)],
	}
	c.body = fmt.Sprintf(`{"algo": %q, "scheduler": %q, "rung_mode": %q, "pruner": %q, "cv_folds": %d, "space": %s, "target": %g, "budget": %d, "seed": 7%s}`,
		specAlgos[at(0, len(specAlgos))], specScheds[at(1, len(specScheds))], specRungModes[at(2, len(specRungModes))],
		specPruners[at(3, len(specPruners))], specFolds[at(4, len(specFolds))], specSpaces[at(5, len(specSpaces))],
		specTargets[at(6, len(specTargets))], specBudgets[at(7, len(specBudgets))], specMemoize[at(8, len(specMemoize))])
	return c
}

// runSpecCase creates the spec twice in one journal (so the second study
// can memoize the first), executes each through the runner and checks the
// differential contract.
func runSpecCase(t *testing.T, c specCase) {
	srv, journal, ts := newGatedTestServer(t, c.slots)
	r := srv.Runner()
	r.DefaultScheduler, r.DefaultRungMode, r.DefaultPruner = c.defSched, c.defMode, c.defPr
	var done []string
	for run := 0; run < 2; run++ {
		code, created := postJSON(t, ts.URL+"/v1/studies", c.body)
		if code == http.StatusBadRequest {
			return // rejected at create: ParseSpec or the pinned resolution
		}
		if code != http.StatusCreated {
			t.Fatalf("create = %d %v", code, created)
		}
		id := created["id"].(string)
		err := r.execute(id)
		meta, gerr := journal.GetStudy(id)
		if gerr != nil {
			t.Fatal(gerr)
		}
		switch {
		case err == nil && meta.State == store.StateDone:
			done = append(done, id)
		case err != nil && meta.State == store.StateFailed:
			if !errors.Is(err, ErrBadSpec) && !errors.Is(err, hpo.ErrCapacity) {
				t.Fatalf("study failed with an untyped error: %v", err)
			}
		default:
			t.Fatalf("study ended %s with error %v", meta.State, err)
		}
	}
	check := func(when string) {
		for _, id := range done {
			code, body := postVerify(t, ts.URL+"/v1/studies/"+id+"/verify")
			var resp VerifyResponse
			if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK || !resp.OK {
				t.Fatalf("verify %s %s = %d %v: %s\n%s", when, id, code, err, resp.Error, resp.Diff)
			}
			if err := srv.CompactVerify(id); err != nil {
				t.Fatalf("CompactVerify %s %s: %v", when, id, err)
			}
		}
	}
	check("under the defaults it ran with")
	r.DefaultScheduler, r.DefaultRungMode, r.DefaultPruner = c.flipped[0], c.flipped[1], c.flipped[2]
	check(fmt.Sprintf("after the defaults changed to %q", c.flipped))
}

func FuzzSpecSpace(f *testing.F) {
	// The two defects this guard was written for, as fixed seeds.
	// An asha scheduler over a space without num_epochs: live Admit
	// clamps the 0 budget, replay used to refuse it.
	f.Add([]byte{0, 4, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0})
	// A scheduler from the daemon default (-scheduler asha), verified
	// again under -scheduler hyperband, which resolves a grid spec to no
	// scheduler at all.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0})
	// Sync-rung Hyperband on one slot: the typed capacity failure.
	f.Add([]byte{4, 0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 13)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeSpecCase(data)
		t.Logf("spec %s under -scheduler=%q -rung-mode=%q -pruner=%q on %d slot(s)", c.body, c.defSched, c.defMode, c.defPr, c.slots)
		runSpecCase(t, c)
	})
}

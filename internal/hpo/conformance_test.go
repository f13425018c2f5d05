package hpo

import (
	"testing"

	"repro/internal/tensor"
)

// allSamplers builds one of each algorithm over the given space with a
// uniform budget.
func allSamplers(space *Space, budget int, seed uint64) []Sampler {
	return []Sampler{
		NewGridSearch(space),
		NewRandomSearch(space, budget, seed),
		NewBayesOpt(space, budget, seed),
		NewTPE(space, budget, seed),
	}
}

// evaluate scores a config deterministically so Tell has realistic data.
func evaluate(space *Space, cfg Config, id int) TrialResult {
	x := space.Encode(cfg)
	acc := 0.5
	for _, xi := range x {
		acc += 0.1 * xi
	}
	return TrialResult{ID: id, Config: cfg, TrialMetrics: TrialMetrics{BestAcc: acc, FinalAcc: acc, Epochs: 1}}
}

// TestSamplerConformance drives every algorithm through the full ask/tell
// protocol and checks the shared invariants:
//  1. every proposed config assigns every space parameter a legal value;
//  2. Ask respects its batch cap;
//  3. the sampler terminates (Done or no proposals) within a generous round
//     budget;
//  4. once Done, Ask keeps returning empty.
func TestSamplerConformance(t *testing.T) {
	space, err := ParseSpaceJSON([]byte(`{
	  "optimizer": ["Adam", "SGD", "RMSprop"],
	  "num_epochs": [3, 9, 27],
	  "lr": {"type": "float", "min": 0.001, "max": 0.1, "log": true},
	  "width": {"type": "int", "min": 4, "max": 32, "step": 14}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	legalEpoch := map[int]bool{3: true, 9: true, 27: true}

	for _, sm := range allSamplers(space, 20, 99) {
		t.Run(sm.Name(), func(t *testing.T) {
			id := 0
			rounds := 0
			for !sm.Done() && rounds < 200 {
				rounds++
				batch := sm.Ask(5)
				if len(batch) > 5 {
					t.Fatalf("Ask(5) returned %d configs", len(batch))
				}
				if len(batch) == 0 {
					if sm.Done() {
						break
					}
					// With every result told, an empty Ask while not Done
					// is a stall, which the study loop reports as an error.
					t.Fatalf("%s stalled: empty Ask while not Done", sm.Name())
				}
				var results []TrialResult
				for _, cfg := range batch {
					// (1) legality of every parameter.
					opt := cfg.Str("optimizer", "")
					if opt != "Adam" && opt != "SGD" && opt != "RMSprop" {
						t.Fatalf("illegal optimizer %q", opt)
					}
					if !legalEpoch[cfg.Int("num_epochs", -1)] {
						t.Fatalf("illegal num_epochs %v", cfg["num_epochs"])
					}
					if lr := cfg.Float("lr", -1); lr < 0.001-1e-12 || lr > 0.1+1e-12 {
						t.Fatalf("lr %v out of range", lr)
					}
					if w := cfg.Int("width", -1); w < 4 || w > 32 {
						t.Fatalf("width %v out of range", w)
					}
					results = append(results, evaluate(space, cfg, id))
					id++
				}
				sm.Tell(results)
			}
			if rounds >= 200 {
				t.Fatalf("%s did not terminate in 200 rounds", sm.Name())
			}
			// (4) exhausted samplers stay exhausted.
			if extra := sm.Ask(3); len(extra) != 0 {
				t.Fatalf("%s proposed %d configs after Done", sm.Name(), len(extra))
			}
			if id == 0 {
				t.Fatalf("%s never proposed anything", sm.Name())
			}
		})
	}
}

// TestSamplerDeterminismConformance: same seed → identical proposal
// streams for every stochastic sampler under an identical tell stream.
func TestSamplerDeterminismConformance(t *testing.T) {
	space := paperSpace(t)
	for _, name := range []string{"random", "bayes", "tpe"} {
		run := func(seed uint64) []string {
			sm, err := NewSampler(name, space, 12, seed)
			if err != nil {
				t.Fatal(err)
			}
			var fingerprints []string
			id := 0
			for rounds := 0; !sm.Done() && rounds < 100; rounds++ {
				batch := sm.Ask(4)
				if len(batch) == 0 {
					break
				}
				var results []TrialResult
				for _, cfg := range batch {
					fingerprints = append(fingerprints, cfg.Fingerprint())
					results = append(results, evaluate(space, cfg, id))
					id++
				}
				sm.Tell(results)
			}
			return fingerprints
		}
		a, b := run(7), run(7)
		if len(a) != len(b) {
			t.Fatalf("%s: stream lengths differ (%d vs %d)", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: proposal %d differs: %s vs %s", name, i, a[i], b[i])
			}
		}
		c := run(8)
		same := 0
		for i := range a {
			if i < len(c) && a[i] == c[i] {
				same++
			}
		}
		if len(a) > 3 && same == len(a) {
			t.Fatalf("%s: different seeds gave identical streams", name)
		}
	}
}

// TestSamplerSeedIndependence: tensor RNG streams feeding samplers do not
// alias across instances created from the same seed constant.
func TestSamplerSeedIndependence(t *testing.T) {
	space := paperSpace(t)
	a := NewRandomSearch(space, 5, 3)
	b := NewRandomSearch(space, 5, 3)
	_ = a.Ask(2) // advance a
	bFull := b.Ask(0)
	if len(bFull) != 5 {
		t.Fatalf("b produced %d", len(bFull))
	}
	// a's remaining draws must equal b's tail (no shared state).
	aRest := a.Ask(0)
	for i, cfg := range aRest {
		if cfg.Fingerprint() != bFull[i+2].Fingerprint() {
			t.Fatalf("instances share or desync state at %d", i)
		}
	}
	_ = tensor.NewRNG // keep import if asserts change
}

package hpo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestGridCoversFullCrossProductExactlyOnce(t *testing.T) {
	s := paperSpace(t)
	g := NewGridSearch(s)
	cfgs := g.Ask(0) // 0 = no limit
	if len(cfgs) != 27 {
		t.Fatalf("grid produced %d configs, want 27", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		fp := c.Fingerprint()
		if seen[fp] {
			t.Fatalf("duplicate config %s", fp)
		}
		seen[fp] = true
	}
	if !g.Done() {
		t.Fatal("grid should be done")
	}
	if extra := g.Ask(10); len(extra) != 0 {
		t.Fatalf("exhausted grid still produced %d configs", len(extra))
	}
}

func TestGridBatchedAskIsComplete(t *testing.T) {
	s := paperSpace(t)
	g := NewGridSearch(s)
	seen := map[string]bool{}
	for {
		batch := g.Ask(4)
		if len(batch) == 0 {
			break
		}
		if len(batch) > 4 {
			t.Fatalf("batch of %d exceeds cap", len(batch))
		}
		for _, c := range batch {
			seen[c.Fingerprint()] = true
		}
	}
	if len(seen) != 27 {
		t.Fatalf("batched grid covered %d/27 configs", len(seen))
	}
}

// Property: grid cardinality equals the product of axis sizes for random
// spaces, with no duplicates.
func TestGridCardinalityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		dims := 1 + rng.Intn(3)
		space := &Space{}
		want := 1
		for d := 0; d < dims; d++ {
			k := 1 + rng.Intn(4)
			vals := make([]interface{}, k)
			for i := range vals {
				vals[i] = rng.Intn(1000)
			}
			// Values may repeat across positions; dedupe to keep the
			// fingerprint-based uniqueness check meaningful.
			uniq := map[interface{}]bool{}
			var dedup []interface{}
			for _, v := range vals {
				if !uniq[v] {
					uniq[v] = true
					dedup = append(dedup, v)
				}
			}
			space.Params = append(space.Params, Categorical{Key: string(rune('a' + d)), Values: dedup})
			want *= len(dedup)
		}
		cfgs := NewGridSearch(space).Ask(0)
		if len(cfgs) != want {
			return false
		}
		seen := map[string]bool{}
		for _, c := range cfgs {
			fp := c.Fingerprint()
			if seen[fp] {
				return false
			}
			seen[fp] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSearchBudgetAndRanges(t *testing.T) {
	s := paperSpace(t)
	r := NewRandomSearch(s, 10, 42)
	cfgs := r.Ask(0)
	if len(cfgs) != 10 {
		t.Fatalf("random produced %d, want 10", len(cfgs))
	}
	if !r.Done() {
		t.Fatal("random should be done after budget")
	}
	for _, c := range cfgs {
		if e := c.Int("num_epochs", -1); e != 20 && e != 50 && e != 100 {
			t.Fatalf("epochs %d out of space", e)
		}
	}
}

func TestRandomSearchDeterministicPerSeed(t *testing.T) {
	s := paperSpace(t)
	a := NewRandomSearch(s, 5, 7).Ask(0)
	b := NewRandomSearch(s, 5, 7).Ask(0)
	for i := range a {
		if a[i].Fingerprint() != b[i].Fingerprint() {
			t.Fatal("same seed should reproduce samples")
		}
	}
	c := NewRandomSearch(s, 5, 8).Ask(0)
	same := 0
	for i := range a {
		if a[i].Fingerprint() == c[i].Fingerprint() {
			same++
		}
	}
	if same == 5 {
		t.Fatal("different seeds produced identical stream")
	}
}

func TestRandomSearchAvoidsDuplicates(t *testing.T) {
	// Space with 27 combos, ask for 20: dedup should give mostly distinct.
	s := paperSpace(t)
	cfgs := NewRandomSearch(s, 20, 3).Ask(0)
	seen := map[string]bool{}
	for _, c := range cfgs {
		seen[c.Fingerprint()] = true
	}
	if len(seen) < 15 {
		t.Fatalf("only %d/20 distinct configs", len(seen))
	}
}

func TestNewSamplerByName(t *testing.T) {
	s := paperSpace(t)
	for _, name := range []string{"grid", "random", "bayes", "tpe"} {
		sm, err := NewSampler(name, s, 10, 1)
		if err != nil {
			t.Fatalf("NewSampler(%s): %v", name, err)
		}
		if sm.Name() != name {
			t.Fatalf("name = %q", sm.Name())
		}
	}
	if _, err := NewSampler("simulated-annealing", s, 10, 1); err == nil {
		t.Fatal("expected error for unknown sampler")
	}
}

// quadratic objective over encoded space: peak accuracy at x=0.7 per dim.
func quadTrial(s *Space, cfg Config, id int) TrialResult {
	x := s.Encode(cfg)
	acc := 1.0
	for _, xi := range x {
		acc -= (xi - 0.7) * (xi - 0.7)
	}
	return TrialResult{ID: id, Config: cfg, TrialMetrics: TrialMetrics{BestAcc: acc, FinalAcc: acc}}
}

func runSamplerOnQuadratic(t *testing.T, sm Sampler, s *Space, rounds, batch int) float64 {
	t.Helper()
	best := math.Inf(-1)
	id := 0
	for r := 0; r < rounds; r++ {
		cfgs := sm.Ask(batch)
		if len(cfgs) == 0 {
			break
		}
		var results []TrialResult
		for _, c := range cfgs {
			tr := quadTrial(s, c, id)
			id++
			if tr.BestAcc > best {
				best = tr.BestAcc
			}
			results = append(results, tr)
		}
		sm.Tell(results)
	}
	return best
}

func TestBayesOptImprovesOverWarmup(t *testing.T) {
	s, _ := ParseSpaceJSON([]byte(`{
	  "x": {"type": "float", "min": 0, "max": 1},
	  "y": {"type": "float", "min": 0, "max": 1}
	}`))
	b := NewBayesOpt(s, 40, 11)
	best := runSamplerOnQuadratic(t, b, s, 40, 1)
	if best < 0.98 {
		t.Fatalf("bayes best = %v, want > 0.98 on smooth quadratic", best)
	}
	if !b.Done() {
		t.Fatal("budget should be exhausted")
	}
}

func TestBayesBeatsRandomOnAverage(t *testing.T) {
	s, _ := ParseSpaceJSON([]byte(`{
	  "x": {"type": "float", "min": 0, "max": 1},
	  "y": {"type": "float", "min": 0, "max": 1}
	}`))
	var bayesSum, randSum float64
	const reps = 3
	for rep := 0; rep < reps; rep++ {
		seed := uint64(100 + rep)
		bayesSum += runSamplerOnQuadratic(t, NewBayesOpt(s, 25, seed), s, 25, 1)
		randSum += runSamplerOnQuadratic(t, NewRandomSearch(s, 25, seed), s, 1, 25)
	}
	if bayesSum < randSum-0.05*reps {
		t.Fatalf("bayes (%v) clearly worse than random (%v)", bayesSum/reps, randSum/reps)
	}
}

func TestTPEImproves(t *testing.T) {
	s, _ := ParseSpaceJSON([]byte(`{
	  "x": {"type": "float", "min": 0, "max": 1},
	  "y": {"type": "float", "min": 0, "max": 1}
	}`))
	tp := NewTPE(s, 40, 13)
	best := runSamplerOnQuadratic(t, tp, s, 40, 1)
	if best < 0.95 {
		t.Fatalf("tpe best = %v, want > 0.95", best)
	}
}

func TestSamplersIgnoreFailedTrials(t *testing.T) {
	s, _ := ParseSpaceJSON([]byte(`{"x": {"type": "float", "min": 0, "max": 1}}`))
	for _, sm := range []Sampler{NewBayesOpt(s, 10, 1), NewTPE(s, 10, 1)} {
		sm.Tell([]TrialResult{{Config: Config{"x": 0.5}, Err: "exploded"}})
		// Must not panic on next Ask, and must still work from warmup.
		if got := sm.Ask(1); len(got) != 1 {
			t.Fatalf("%s Ask after failed Tell = %d configs", sm.Name(), len(got))
		}
	}
}

func TestGPPredictionSanity(t *testing.T) {
	// GP posterior at an observed point should be close to the observation
	// with near-zero variance.
	xs := [][]float64{{0.1}, {0.5}, {0.9}}
	ys := []float64{1.0, 2.0, 1.5}
	g := newGP(xs, ys, 0.25, 1e-6)
	mu, sigma := g.predict([]float64{0.5})
	if math.Abs(mu-2.0) > 0.05 {
		t.Fatalf("posterior mean at observation = %v, want ≈2", mu)
	}
	if sigma > 0.1 {
		t.Fatalf("posterior sigma at observation = %v, want ≈0", sigma)
	}
	// Far from data the variance must grow.
	_, farSigma := g.predict([]float64{5.0})
	if farSigma < 0.5 {
		t.Fatalf("far-field sigma = %v, want near prior (1)", farSigma)
	}
}

func TestCholeskySolveIdentity(t *testing.T) {
	// Solve A x = b for A = I (plus tiny noise): x == b.
	a := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	l := cholesky(a)
	b := []float64{3, -1, 2}
	x := choleskySolve(l, b)
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-9 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestExpectedImprovementProperties(t *testing.T) {
	// Zero variance → zero EI.
	if ei := expectedImprovement(1.0, 0, 0.5, 0.01); ei != 0 {
		t.Fatalf("EI with sigma=0 = %v", ei)
	}
	// Higher mean → higher EI at equal sigma.
	lo := expectedImprovement(0.4, 0.1, 0.5, 0.01)
	hi := expectedImprovement(0.7, 0.1, 0.5, 0.01)
	if hi <= lo {
		t.Fatalf("EI not monotone in mean: %v vs %v", lo, hi)
	}
	// EI is non-negative.
	if lo < 0 {
		t.Fatalf("negative EI %v", lo)
	}
}

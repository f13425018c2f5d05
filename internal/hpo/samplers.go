package hpo

import (
	"fmt"

	"repro/internal/tensor"
)

// Sampler proposes configurations to evaluate. Static samplers (grid,
// random) ignore Tell; model-based samplers (Bayes, TPE) use the reported
// results to steer later proposals. Hyperband is not built here: it is the
// rung-driven RungHyperband, which NewTrialScheduler returns in both the
// sampler and the scheduler role.
type Sampler interface {
	// Name identifies the algorithm ("grid", "random", ...).
	Name() string
	// Ask returns up to n new configs, or an empty slice when the sampler
	// is exhausted for now; a sampler is finished when Ask returns empty
	// AND Done reports true.
	Ask(n int) []Config
	// Tell reports completed trials.
	Tell(trials []TrialResult)
	// Done reports whether the sampler will never propose again.
	Done() bool
}

// NewSampler builds a sampler by name with the common knobs; budget is the
// maximum number of trials for random/model-based samplers (grid ignores
// it).
func NewSampler(name string, space *Space, budget int, seed uint64) (Sampler, error) {
	switch name {
	case "grid":
		return NewGridSearch(space), nil
	case "random":
		return NewRandomSearch(space, budget, seed), nil
	case "bayes":
		return NewBayesOpt(space, budget, seed), nil
	case "tpe":
		return NewTPE(space, budget, seed), nil
	default:
		return nil, fmt.Errorf("hpo: unknown sampler %q (want grid, random, bayes or tpe)", name)
	}
}

// GridSearch enumerates the full cross product of the space exactly once —
// "Exhaustive Grid search involves trying out all possible combinations"
// (§2.1). Order is row-major in parameter declaration order.
type GridSearch struct {
	space  *Space
	values [][]interface{}
	index  []int
	done   bool
}

// NewGridSearch builds a grid sampler over the space.
func NewGridSearch(space *Space) *GridSearch {
	g := &GridSearch{space: space, index: make([]int, len(space.Params))}
	for _, p := range space.Params {
		g.values = append(g.values, p.GridValues())
	}
	return g
}

// Name implements Sampler.
func (g *GridSearch) Name() string { return "grid" }

// Ask implements Sampler.
func (g *GridSearch) Ask(n int) []Config {
	var out []Config
	for !g.done && (n <= 0 || len(out) < n) {
		cfg := Config{}
		for i, p := range g.space.Params {
			cfg[p.Name()] = g.values[i][g.index[i]]
		}
		out = append(out, cfg)
		// Odometer increment, last parameter fastest.
		i := len(g.index) - 1
		for i >= 0 {
			g.index[i]++
			if g.index[i] < len(g.values[i]) {
				break
			}
			g.index[i] = 0
			i--
		}
		if i < 0 {
			g.done = true
		}
	}
	return out
}

// Tell implements Sampler (no-op: grid is non-adaptive).
func (g *GridSearch) Tell([]TrialResult) {}

// Done implements Sampler.
func (g *GridSearch) Done() bool { return g.done }

// RandomSearch draws budget independent uniform samples (Bergstra & Bengio
// 2012, the paper's §2.1 "superior algorithm in many cases").
type RandomSearch struct {
	space  *Space
	budget int
	drawn  int
	rng    *tensor.RNG
	// dedup avoids re-proposing identical configs on small spaces.
	seen map[string]bool
}

// NewRandomSearch builds a random sampler with the given trial budget.
func NewRandomSearch(space *Space, budget int, seed uint64) *RandomSearch {
	return &RandomSearch{space: space, budget: budget, rng: tensor.NewRNG(seed), seen: map[string]bool{}}
}

// Name implements Sampler.
func (r *RandomSearch) Name() string { return "random" }

// Ask implements Sampler.
func (r *RandomSearch) Ask(n int) []Config {
	var out []Config
	for r.drawn < r.budget && (n <= 0 || len(out) < n) {
		cfg := r.space.Sample(r.rng)
		fp := cfg.Fingerprint()
		// Retry a few times to avoid duplicates; accept one if the space is
		// nearly exhausted.
		for tries := 0; r.seen[fp] && tries < 20; tries++ {
			cfg = r.space.Sample(r.rng)
			fp = cfg.Fingerprint()
		}
		r.seen[fp] = true
		out = append(out, cfg)
		r.drawn++
	}
	return out
}

// Tell implements Sampler (no-op).
func (r *RandomSearch) Tell([]TrialResult) {}

// Done implements Sampler.
func (r *RandomSearch) Done() bool { return r.drawn >= r.budget }

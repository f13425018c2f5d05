package hpo

import (
	"fmt"
	"sort"
	"sync"
)

// NewPruner builds a pruner by name: a TrialScheduler that never promotes.
// It halts losing trials from the intermediate metrics they stream — the
// generalisation of the paper's "the process can be stopped as soon as one
// task achieves a specified accuracy" (§6.1) from a study-global flag into
// a per-trial decision. "" and "none" mean no pruning (nil scheduler, nil
// error); eta and warmup are interpreted per rule and may be 0 for
// defaults. Higher values are better (validation accuracy).
func NewPruner(name string, eta, warmup int) (TrialScheduler, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "median":
		return NewMedianStop(warmup, 0), nil
	case "asha":
		return NewASHA(eta, warmup), nil
	default:
		return nil, fmt.Errorf("hpo: unknown pruner %q (want none, median or asha)", name)
	}
}

// neverPromotes is a pruner's no-op half of TrialScheduler: no promotion
// ceiling (so no "_hb_max" stamp and unchanged memo fingerprints), no
// budget to admit, and nothing to settle on exit (a finished curve keeps
// anchoring later decisions).
type neverPromotes struct{}

func (neverPromotes) MaxBudget() int                                         { return 0 }
func (neverPromotes) Admit(trialID, budget int, cfg Config)                  {}
func (neverPromotes) Complete(trialID int, res *TrialResult) []SchedDecision { return nil }

// pruneAt is a pruner's one verdict: halt the trial at epoch.
func pruneAt(name string, trialID, epoch int, value float64) []SchedDecision {
	return []SchedDecision{{TrialID: trialID, Epoch: epoch, Reason: ReasonPrunerLosing(name, epoch, value)}}
}

// MedianStop implements the median stopping rule (Golovin et al., Google
// Vizier): a trial is pruned at epoch e when its reported value is strictly
// below the median of all other trials' values at the same epoch. Cheap,
// model-free, and a strong baseline.
type MedianStop struct {
	// Warmup is the number of epochs a trial is immune (default 1): epoch
	// indices below Warmup never prune.
	Warmup int
	// MinTrials is how many other trials must have reported the same epoch
	// before the median engages (default 2).
	MinTrials int

	neverPromotes
	mu     sync.Mutex
	curves map[int][]float64 // trialID → value per epoch index (NaN-free, grown as reported)
	seen   map[int][]bool    // trialID → epoch reported?
}

// NewMedianStop builds the rule; zero arguments select the defaults.
func NewMedianStop(warmup, minTrials int) *MedianStop {
	if warmup < 1 {
		warmup = 1
	}
	if minTrials < 1 {
		minTrials = 2
	}
	return &MedianStop{
		Warmup: warmup, MinTrials: minTrials,
		curves: make(map[int][]float64),
		seen:   make(map[int][]bool),
	}
}

// Name implements TrialScheduler.
func (m *MedianStop) Name() string { return "median" }

// Observe implements TrialScheduler.
func (m *MedianStop) Observe(trialID, epoch int, value float64) []SchedDecision {
	if epoch < 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, s := m.curves[trialID], m.seen[trialID]
	for len(c) <= epoch {
		c = append(c, 0)
		s = append(s, false)
	}
	c[epoch], s[epoch] = value, true
	m.curves[trialID], m.seen[trialID] = c, s

	if epoch < m.Warmup {
		return nil
	}
	var others []float64
	//lint:ignore replaydet guarded collect of peer curve values; DecideMedianStop reduces them via the median, which is order-insensitive
	for id, oc := range m.curves {
		if id == trialID || len(oc) <= epoch || !m.seen[id][epoch] {
			continue
		}
		others = append(others, oc[epoch])
	}
	if !DecideMedianStop(value, others, m.MinTrials) {
		return nil
	}
	return pruneAt(m.Name(), trialID, epoch, value)
}

// median returns the middle value (mean of the two middles for even n).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ASHA implements the Asynchronous Successive Halving pruning rule (Li et
// al.): rungs sit at MinResource·Eta^k epochs; a trial reaching a rung
// continues only while it ranks in the top 1/Eta of all values observed at
// that rung so far. Unlike synchronous Hyperband it never waits for a rung
// to fill — decisions are made per arrival, which is what lets remote
// trials stream in at their own pace.
type ASHA struct {
	// Eta is the halving factor (default 3).
	Eta int
	// MinResource is the first rung's epoch count (default 1).
	MinResource int

	neverPromotes
	mu    sync.Mutex
	rungs map[int]map[int]float64 // rung index → trialID → value
}

// NewASHA builds the rule; zero arguments select the defaults.
func NewASHA(eta, minResource int) *ASHA {
	if eta < 2 {
		eta = 3
	}
	if minResource < 1 {
		minResource = 1
	}
	return &ASHA{Eta: eta, MinResource: minResource, rungs: make(map[int]map[int]float64)}
}

// Name implements TrialScheduler.
func (a *ASHA) Name() string { return "asha" }

// rungIndex returns k when resource == MinResource·Eta^k, else -1.
func (a *ASHA) rungIndex(resource int) int {
	if resource < a.MinResource {
		return -1
	}
	r, k := a.MinResource, 0
	for r <= resource {
		if r == resource {
			return k
		}
		r *= a.Eta
		k++
	}
	return -1
}

// Observe implements TrialScheduler. epoch is 0-based; the resource
// consumed after it is epoch+1 training epochs. Only strictly better
// incumbents outrank the arrival — not DecideRungArrival's rule, under
// which an equal incumbent ranks ahead.
func (a *ASHA) Observe(trialID, epoch int, value float64) []SchedDecision {
	k := a.rungIndex(epoch + 1)
	if k < 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rung := a.rungs[k]
	if rung == nil {
		rung = make(map[int]float64)
		a.rungs[k] = rung
	}
	rung[trialID] = value

	keep := len(rung) / a.Eta
	if keep < 1 {
		keep = 1
	}
	rank := 1
	//lint:ignore replaydet pure count of better-scoring incumbents; summation order cannot change the rank
	for id, v := range rung {
		if id == trialID {
			continue
		}
		if v > value {
			rank++
		}
	}
	if rank <= keep {
		return nil
	}
	return pruneAt(a.Name(), trialID, epoch, value)
}

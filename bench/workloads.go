package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// tenant is one entry of the generated hpod tenant registry.
type tenant struct {
	ID     string  `json:"id"`
	Token  string  `json:"token"`
	Weight float64 `json:"weight,omitempty"`
}

// studySpec is the JSON body the generator posts; hpod sees nothing else
// of a workload.
type studySpec struct {
	Algo      string                 `json:"algo"`
	Space     map[string]interface{} `json:"space"`
	Budget    int                    `json:"budget,omitempty"`
	Seed      uint64                 `json:"seed"`
	Dataset   string                 `json:"dataset"`
	Samples   int                    `json:"samples"`
	Hidden    []int                  `json:"hidden"`
	Memoize   *bool                  `json:"memoize,omitempty"`
	Pruner    string                 `json:"pruner,omitempty"`
	Scheduler string                 `json:"scheduler,omitempty"`
	RungMode  string                 `json:"rung_mode,omitempty"`
	Start     bool                   `json:"start,omitempty"`
}

// modelShape is what the layer probes need to reproduce a workload's
// training step: the dense shapes, not 128³.
type modelShape struct {
	samples int
	hidden  int
	batch   int
	// epochs is the length of one probe training run.
	epochs int
}

// workload is one traffic mix. The names are normative: later issues cite
// them.
type workload struct {
	name string
	why  string
	// flags are the hpod flags besides -addr, -journal, -tenants and
	// -compact-interval (always 0: a run is shorter than any compaction
	// period, and a background rewrite would be noise).
	flags func(nproc int) []string
	// tenants, when non-empty, turns multi-tenancy on.
	tenants []tenant
	// openLoop submits on a seeded schedule whatever the completions do;
	// otherwise nproc clients each wait for their study before the next.
	openLoop bool
	// restart SIGKILLs the child after the last submission and restarts it
	// on the same journal before the read phase.
	restart bool
	// studiesPerSecond fixes the work by count: a pass submits
	// ceil(studiesPerSecond × --seconds) studies, so two commits do
	// identical work. For a closed loop it is the seed's capacity on the
	// 2-core reference sandbox (the pass then lasts about --seconds there);
	// for the open loop it is the offered rate, set once to about half the
	// seed's closed-loop capacity for the same studies.
	studiesPerSecond float64
	// repeatShare of the submissions repeat an earlier (spec, seed) with
	// memoization left on.
	repeatShare float64
	// spec generates one study; the seed argument reaches hpod only
	// through what this returns.
	spec func(r *rand.Rand) studySpec
	// wantTrials is the trial count the sampler must produce.
	wantTrials int
	shape      modelShape
}

func off() *bool { b := false; return &b }

// jitter scales x by a seeded factor in [1/f, f], log-uniform.
func jitter(r *rand.Rand, x, f float64) float64 {
	return x * math.Exp((2*r.Float64()-1)*math.Log(f))
}

// round3 keeps generated bounds short in the journaled spec.
func round3(x float64) float64 {
	s, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 3, 64), 64)
	return s
}

func logRange(r *rand.Rand, lo, hi float64) map[string]interface{} {
	return map[string]interface{}{"type": "float", "log": true,
		"min": round3(jitter(r, lo, 1.5)), "max": round3(jitter(r, hi, 1.5))}
}

// hyperbandTrials is the number of configurations batch Hyperband draws
// for max resource R and halving factor eta: bracket s of s_max..0 starts
// ceil((s_max+1)/(s+1) · eta^s) of them (Li et al., Algorithm 1) — the
// independent expectation the trial-count check compares hpod against.
func hyperbandTrials(R, eta int) int {
	sMax := 0
	for p := eta; p <= R; p *= eta {
		sMax++
	}
	total := 0
	for s := sMax; s >= 0; s-- {
		total += int(math.Ceil(float64(sMax+1) / float64(s+1) * math.Pow(float64(eta), float64(s))))
	}
	return total
}

func equalTenants(n int) []tenant {
	ts := make([]tenant, n)
	for i := range ts {
		ts[i] = tenant{ID: fmt.Sprintf("t%d", i), Token: fmt.Sprintf("bench-token-%d", i), Weight: 1}
	}
	return ts
}

var workloads = []*workload{
	{
		name: "train_heavy",
		why:  "async rung-Hyperband studies of an 800-sample, 64-unit MLP: tensor/nn do almost all the work and the report path almost none, so a kernel change shows here and a journal/SSE change must not",
		flags: func(nproc int) []string {
			return []string{"-parallel", strconv.Itoa(nproc), "-max-studies", strconv.Itoa(nproc)}
		},
		studiesPerSecond: 0.65,
		spec: func(r *rand.Rand) studySpec {
			return studySpec{Algo: "hyperband", Scheduler: "hyperband", RungMode: "async", Budget: 9,
				Space: map[string]interface{}{
					"learning_rate": logRange(r, 0.002, 0.05),
					"optimizer":     []string{"Adam", "SGD"},
				},
				Seed: 1 + uint64(r.Int63n(1<<40)), Dataset: "mnist", Samples: 800, Hidden: []int{64}, Memoize: off()}
		},
		wantTrials: hyperbandTrials(9, 3),
		shape:      modelShape{samples: 800, hidden: 64, batch: 32, epochs: 4},
	},
	{
		name: "report_heavy",
		why:  "12-trial x 40-epoch grids of a toy model, two equal tenants, median pruner: the per-epoch path (handler, decision, journal append, event ring, SSE) does as much work as training, tensor the least",
		flags: func(nproc int) []string {
			return []string{"-parallel", strconv.Itoa(nproc), "-max-studies", strconv.Itoa(nproc)}
		},
		tenants:          equalTenants(2),
		studiesPerSecond: 62,
		spec: func(r *rand.Rand) studySpec {
			return studySpec{Algo: "grid", Pruner: "median",
				Space: map[string]interface{}{
					"learning_rate": []float64{round3(jitter(r, 0.01, 1.3)), round3(jitter(r, 0.03, 1.3)), round3(jitter(r, 0.1, 1.3))},
					"optimizer":     []string{"Adam", "SGD"},
					"batch_size":    []int{8, 16},
					"num_epochs":    []int{40},
				},
				Seed: 1 + uint64(r.Int63n(1<<40)), Dataset: "mnist", Samples: 10, Hidden: []int{2}, Memoize: off()}
		},
		wantTrials: 3 * 2 * 2,
		shape:      modelShape{samples: 10, hidden: 2, batch: 8, epochs: 40},
	},
	{
		name: "remote_rungs",
		why:  "ASHA over a random sampler on the remote backend: every epoch crosses comm (gob/TCP) and promotions/halts travel as ExtendTask/CancelTask, which the two local workloads never exercise",
		flags: func(nproc int) []string {
			return []string{"-backend", "remote", "-workers", strconv.Itoa(nproc), "-parallel", "1", "-max-studies", strconv.Itoa(nproc)}
		},
		tenants:          equalTenants(2),
		studiesPerSecond: 13,
		spec: func(r *rand.Rand) studySpec {
			return studySpec{Algo: "random", Scheduler: "asha", Budget: 27,
				Space: map[string]interface{}{
					"learning_rate": logRange(r, 0.002, 0.05),
					"optimizer":     []string{"Adam", "SGD"},
					"num_epochs":    []int{3},
				},
				Seed: 1 + uint64(r.Int63n(1<<40)), Dataset: "mnist", Samples: 64, Hidden: []int{8}, Memoize: off()}
		},
		wantTrials: 27,
		shape:      modelShape{samples: 64, hidden: 8, batch: 32, epochs: 9},
	},
	{
		name: "churn_restart",
		why:  "open loop of tiny studies from four weighted tenants, 30% memoized repeats, then SIGKILL, restart and reads: admission, study boot cost, the memo index, boot replay and reads dominate, not training",
		flags: func(nproc int) []string {
			return []string{"-parallel", strconv.Itoa(nproc), "-max-studies", strconv.Itoa(nproc), "-queue-depth", "32"}
		},
		tenants: []tenant{
			{ID: "w1a", Token: "bench-token-a", Weight: 1}, {ID: "w1b", Token: "bench-token-b", Weight: 1},
			{ID: "w2", Token: "bench-token-c", Weight: 2}, {ID: "w4", Token: "bench-token-d", Weight: 4},
		},
		openLoop:         true,
		restart:          true,
		studiesPerSecond: 40,
		repeatShare:      0.3,
		spec: func(r *rand.Rand) studySpec {
			return studySpec{Algo: "grid",
				Space: map[string]interface{}{
					"learning_rate": []float64{round3(jitter(r, 0.01, 1.3)), round3(jitter(r, 0.05, 1.3))},
					"optimizer":     []string{"Adam", "SGD"},
					"num_epochs":    []int{3},
				},
				Seed: 1 + uint64(r.Int63n(1<<40)), Dataset: "mnist", Samples: 200, Hidden: []int{8}, Start: true}
		},
		wantTrials: 2 * 2,
		shape:      modelShape{samples: 200, hidden: 8, batch: 32, epochs: 3},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// planned is one generated submission.
type planned struct {
	spec   []byte
	tenant int // index into the workload's tenants, 0 without tenancy
	// repeatOf is the index of the earlier submission this one repeats
	// verbatim, or -1.
	repeatOf int
	// due is the open-loop send time in seconds from the start of the
	// measured window (0 for closed loops).
	due float64
}

// plan generates a pass's submissions from the seed: specs, tenant
// assignment, repeats and (open loop) the arrival schedule. The same seed
// gives the same plan.
func (w *workload) plan(seed uint64, count int) ([]planned, error) {
	r := rand.New(rand.NewSource(int64(seed)*7919 + int64(len(w.name))))
	out := make([]planned, count)
	// Tenants submit in proportion to their weight, so fair share and
	// offered load agree and nobody is starved by construction.
	var wheel []int
	for i, t := range w.tenants {
		for k := 0; k < int(math.Max(1, t.Weight)); k++ {
			wheel = append(wheel, i)
		}
	}
	due := 0.0
	for i := range out {
		p := planned{repeatOf: -1}
		if len(wheel) > 0 {
			p.tenant = wheel[i%len(wheel)]
		}
		if w.openLoop {
			// Evenly spaced arrivals with ±50% seeded jitter: open loop
			// (sends ignore completions) without Poisson bursts, whose
			// run-to-run queueing noise would swamp the latency metrics.
			due += (0.5 + r.Float64()) / w.studiesPerSecond
			p.due = due
		}
		if i > 0 && r.Float64() < w.repeatShare {
			// A memo hit needs the same tenant-independent (spec, seed):
			// repeat an earlier original verbatim.
			j := r.Intn(i)
			for out[j].repeatOf >= 0 {
				j = out[j].repeatOf
			}
			p.repeatOf, p.spec = j, out[j].spec
		} else {
			raw, err := json.Marshal(w.spec(r))
			if err != nil {
				return nil, err
			}
			p.spec = raw
		}
		out[i] = p
	}
	return out, nil
}

// Package paperrepro regenerates every table and figure of the paper's
// evaluation (§5-§6) plus the ablations that cmd/experiments prints
// (`experiments -fig all`). Each Figure*/Ablation* function runs the
// corresponding experiment end-to-end — node-scale runs on the
// discrete-event simulator with the calibrated cost model,
// training-accuracy runs with real training on the goroutine backend —
// and returns a result whose String() prints the same rows/series the
// paper reports.
package paperrepro

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpo"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// Grid27 returns the paper's Listing-1 search space (3 optimizers × 3 epoch
// counts × 3 batch sizes = 27 experiments).
func Grid27() (*hpo.Space, error) {
	return hpo.ParseSpaceJSON([]byte(`{
	  "optimizer": ["Adam", "SGD", "RMSprop"],
	  "num_epochs": [20, 50, 100],
	  "batch_size": [32, 64, 128]
	}`))
}

// gridConfigs enumerates Grid27 in submission order.
func gridConfigs() ([]hpo.Config, error) {
	s, err := Grid27()
	if err != nil {
		return nil, err
	}
	return hpo.NewGridSearch(s).Ask(0), nil
}

// costFor builds the sim cost function for a dataset workload. The config
// travels as the task argument, exactly like the paper's experiment(config).
func costFor(dataset string) runtime.CostFunc {
	return func(args []interface{}, res runtime.SimResources) time.Duration {
		cfg := args[0].(hpo.Config)
		epochs := cfg.Int("num_epochs", 20)
		batch := cfg.Int("batch_size", 64)
		var c perfmodel.TaskCost
		if dataset == "cifar" {
			c = perfmodel.CIFARCost(epochs, batch)
		} else {
			c = perfmodel.MNISTCost(epochs, batch)
		}
		return c.Duration(perfmodel.Resources{
			Cores: res.Cores, GPUs: res.GPUs,
			CoreSpeed: res.CoreSpeed, GPUSpeed: res.GPUSpeed,
		})
	}
}

// simGrid runs the 27-task grid on the simulator and returns the runtime
// stats, trace recorder and makespan.
//
// spec is the cluster; cores/gpus are the per-task constraint; dataset
// selects the cost model; policy the scheduler policy; faults an optional
// injector.
func simGrid(spec cluster.Spec, cores, gpus int, dataset string, policy runtime.Policy,
	faults func(task, attempt, node int) error) (runtime.Stats, *trace.Recorder, error) {

	rec := trace.NewRecorder()
	rt, err := runtime.New(runtime.Options{
		Cluster:       spec,
		Backend:       runtime.Sim,
		Policy:        policy,
		Recorder:      rec,
		FaultInjector: faults,
	})
	if err != nil {
		return runtime.Stats{}, nil, err
	}
	if err := rt.Register(runtime.TaskDef{
		Name:       "experiment",
		Constraint: runtime.Constraint{Cores: cores, GPUs: gpus},
		Cost:       costFor(dataset),
	}); err != nil {
		return runtime.Stats{}, nil, err
	}
	cfgs, err := gridConfigs()
	if err != nil {
		return runtime.Stats{}, nil, err
	}
	for _, cfg := range cfgs {
		if _, err := rt.Submit("experiment", cfg); err != nil {
			return runtime.Stats{}, nil, err
		}
	}
	rt.Barrier()
	st := rt.Stats()
	rt.Shutdown()
	return st, rec, nil
}

// Series is one plotted line: label plus (x, y) points.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// formatDuration prints durations in minutes, the unit the paper uses.
func formatDuration(d time.Duration) string {
	return fmt.Sprintf("%.1f min", d.Minutes())
}

// table renders aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// startedAtZero counts tasks whose start event is at virtual time zero.
func startedAtZero(rec *trace.Recorder) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Type == trace.EventTaskStart && ev.At == 0 {
			n++
		}
	}
	return n
}

// sortedStartTimes returns distinct task start times in order.
func sortedStartTimes(rec *trace.Recorder) []time.Duration {
	var ts []time.Duration
	for _, ev := range rec.Events() {
		if ev.Type == trace.EventTaskStart {
			ts = append(ts, ev.At)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

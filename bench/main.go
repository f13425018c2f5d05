// Command bench is the hpod service benchmark: it builds cmd/hpod, boots it
// as a child process, drives it over real HTTP and SSE from one generator
// process, checks the outputs and prints every metric by name with its
// unit. See README.md for the workloads, the metric glossary and how the
// numbers interact.
//
// Usage (from this directory; BENCHMARK.json runs it through run.sh):
//
//	go run . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	go run . run [-seed 1] [-seconds 20] [-workload <name>] [-o result.json]
//	go run . aa [-seed 1] [-seconds 20]
//	go run . compare a.json b.json
//
// The first form is the benchmark contract: one workload, one pass, and as
// the last line of standard output one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced pass
// (--trace 1). `run` does both passes for every workload and reports the
// tracing overhead; `aa` runs two sets of the same code and compares them
// against each metric's bound; `compare` does that for two saved results
// and refuses results from different core counts or filesystems.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one contract run; the driver allows 180 s.
const runDeadline = 170 * time.Second

// setupBoots is how many throwaway boots feed setup_s in an untraced pass.
const setupBoots = 31

// env describes the machine and the code a result came from. compare
// refuses to set results from different core counts or journal
// filesystems side by side.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	JournalFS  string `json:"journal_fs"`
}

func readEnv(outDir string) env {
	e := env{NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: goruntime.Version(), Commit: "unknown", JournalFS: fsTypeOf(outDir)}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The harness and hpod are built from the same checkout; outside a git
	// work tree (the driver's checkout) no revision is stamped.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				e.Commit += "+dirty"
			}
		}
	}
	return e
}

// workloadResult is one workload's part of a saved result.
type workloadResult struct {
	Name       string           `json:"name"`
	HpodFlags  []string         `json:"hpod_flags"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	Refused    int64            `json:"refused"`
	Violations []string         `json:"violations,omitempty"`
	Samples    map[string]int   `json:"samples"`
	EndToEnd   map[string]value `json:"end_to_end,omitempty"`
	PerLayer   map[string]value `json:"per_layer,omitempty"`
	// TraceOverheadShare is 1 − traced/untraced epochs_per_s, present when
	// both passes ran.
	TraceOverheadShare *float64 `json:"trace.overhead_share,omitempty"`
}

// resultDoc is what `run -o` saves and `compare` reads.
type resultDoc struct {
	Env       env              `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()
	code := realMain(os.Args[1:])
	cleanupAll()
	os.Exit(code)
}

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return cmdRun(args[1:])
		case "aa":
			return cmdAA(args[1:])
		case "compare":
			return cmdCompare(args[1:])
		}
	}
	return cmdContract(args)
}

// harness is what every mode shares: the output directory and the hpod
// binary built once per process.
type harness struct {
	outDir  string
	hpodBin string
	buildS  float64
	nproc   int
}

func newHarness(ctx context.Context) (*harness, error) {
	h := &harness{outDir: "out", nproc: goruntime.NumCPU()}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return nil, err
	}
	bin, took, err := buildHpod(ctx, h.outDir)
	if err != nil {
		return nil, err
	}
	h.hpodBin, h.buildS = bin, took.Seconds()
	return h, nil
}

// pass runs one pass and folds it into a workloadResult.
func (h *harness) pass(ctx context.Context, w *workload, seed uint64, seconds int, scale float64, traced bool) (*passResult, workloadResult, error) {
	cfg := passConfig{w: w, seed: seed, seconds: seconds, scale: scale, traced: traced,
		outDir: h.outDir, hpodBin: h.hpodBin, nproc: h.nproc}
	if !traced {
		cfg.setupReps = setupBoots
	}
	p, err := runPass(ctx, cfg)
	if err != nil {
		return nil, workloadResult{}, err
	}
	p.buildS = h.buildS
	if ctx.Err() != nil {
		p.violate("run deadline exceeded")
	}
	r := workloadResult{Name: w.name, HpodFlags: p.flags,
		Correct:   len(p.violations) == 0,
		Attempted: p.ops.attempted.Load(), Failed: p.ops.failed.Load(), Refused: p.ops.refused.Load(),
		Violations: p.violations,
		Samples: map[string]int{"study_ms": p.studyMS.n(), "first_epoch_ms": p.firstEpochMS.n(),
			"verify_ms": p.lat.verify.n(), "admit_ms": p.admitMS.n(), "setup_s": len(p.setupS)},
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	if traced {
		r.PerLayer = render(perLayer, p.perLayerValues())
	} else {
		r.EndToEnd = render(endToEnd, p.endToEndValues())
	}
	return p, r, nil
}

// cmdContract is the benchmark contract: one workload, one pass, the result
// as the last line of standard output.
func cmdContract(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated specs and schedule")
	seconds := fs.Int("seconds", 20, "length of the measured window on the reference sandbox")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	h, err := newHarness(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	_, r, err := h.pass(ctx, w, *seed, *seconds, 1, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, v := range r.Violations {
		fmt.Fprintln(os.Stderr, "bench: violation:", v)
	}
	metrics := r.EndToEnd
	if *trace == 1 {
		metrics = r.PerLayer
	}
	line, err := json.Marshal(map[string]interface{}{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// selectWorkloads resolves -workload ("" = all four).
func selectWorkloads(name string) ([]*workload, error) {
	if name == "" {
		return workloads, nil
	}
	w := workloadByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	return []*workload{w}, nil
}

// cmdRun is the one command for people: per workload an untraced pass (the
// end-to-end metrics), a shorter traced pass (per-layer metrics, probes, a
// trace file) and the tracing overhead between the two.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed of the generated specs and schedule")
	seconds := fs.Int("seconds", 20, "length of each untraced measured window on the reference sandbox")
	name := fs.String("workload", "", "run only this workload")
	out := fs.String("o", "", "also save the result as JSON here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ctx := context.Background()
	h, err := newHarness(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	doc := resultDoc{Env: readEnv(h.outDir), Seed: *seed, Seconds: *seconds}
	printEnv(doc.Env)
	ok := true
	for _, w := range ws {
		pctx, cancel := context.WithTimeout(ctx, 2*runDeadline)
		_, r, err := h.pass(pctx, w, *seed, *seconds, 1, false)
		var traced workloadResult
		if err == nil {
			// The traced pass is half as long: it exists for the breakdown
			// and the trace file, not for the gated numbers.
			_, traced, err = h.pass(pctx, w, *seed, *seconds, 0.5, true)
		}
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		r.PerLayer = traced.PerLayer
		r.Correct = r.Correct && traced.Correct
		r.Violations = append(r.Violations, traced.Violations...)
		r.Attempted, r.Failed, r.Refused = r.Attempted+traced.Attempted, r.Failed+traced.Failed, r.Refused+traced.Refused
		if u := r.EndToEnd["epochs_per_s"].Value; u > 0 {
			share := 1 - traced.PerLayer["svc.epochs_per_s"].Value/u
			r.TraceOverheadShare = &share
		}
		printWorkload(r)
		ok = ok && r.Correct
		doc.Workloads = append(doc.Workloads, r)
	}
	if *out != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED: output checks were violated")
		return 1
	}
	return 0
}

func printEnv(e env) {
	fmt.Printf("env: %d cpu (GOMAXPROCS %d), %s, %s, commit %s, journal on %s\n",
		e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.GoVersion, e.Commit, e.JournalFS)
}

func printWorkload(r workloadResult) {
	fmt.Printf("\n== %s  (hpod %s)\n", r.Name, strings.Join(r.HpodFlags, " "))
	fmt.Printf("   correct=%v attempted=%d failed=%d refused=%d samples=%v\n", r.Correct, r.Attempted, r.Failed, r.Refused, r.Samples)
	for _, v := range r.Violations {
		fmt.Printf("   VIOLATION: %s\n", v)
	}
	for _, d := range endToEnd {
		if v, ok := r.EndToEnd[d.Name]; ok {
			fmt.Printf("   %-32s %14.4f %-8s (%s is better, bound %.0f%%)\n", d.Name, v.Value, v.Unit, d.Better, d.Bound*100)
		}
	}
	names := make([]string, 0, len(r.PerLayer))
	for n := range r.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-32s %14.4f %s\n", n, r.PerLayer[n].Value, r.PerLayer[n].Unit)
	}
	if r.TraceOverheadShare != nil {
		fmt.Printf("   %-32s %14.4f ratio\n", "trace.overhead_share", *r.TraceOverheadShare)
	}
}

// Command hpo is the analogue of the paper's `runcompss application.py
// json_file`: it loads a hyperparameter search space from a JSON config
// (Listing 1 format), runs the chosen HPO algorithm as parallel tasks on the
// runtime, and prints the accuracy leaderboard and curves. Optionally it
// writes a Paraver trace and a DOT task graph.
//
// Scaling out is the paper's one-flag story: `-workers 3` starts three
// worker processes (in-process goroutines over real TCP) and the identical
// study runs distributed, no code changes.
//
// Usage:
//
//	hpo -space space.json [-algo grid] [-dataset mnist] [-samples 800]
//	    [-model mlp] [-cores 1] [-parallel 8] [-workers 0] [-budget 20]
//	    [-target 0] [-seed 1] [-pruner median] [-scheduler hyperband]
//	    [-rung-mode async] [-visualise]
//	    [-journal hpod.journal -study cli] [-trace out.prv] [-graph out.dot]
//	    [-policy fifo] [-metrics-addr 127.0.0.1:9090]
//
// The replay verb verifies a journal offline: it re-derives the study's
// scheduler/pruner decisions from the record stream and checks the
// recorded decisions byte-match (docs/JOURNAL.md, "Replay contract"):
//
//	hpo replay -journal hpod.journal -study <id>   (daemon journals: spec on record)
//	hpo replay -journal j -study cli -scheduler hyperband -rung-mode async \
//	    -space space.json -budget 9 -seed 42       (CLI journals: repeat the run's flags)
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	goruntime "runtime"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/hpo"
	"repro/internal/obs"
	rt "repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
)

type options struct {
	spaceFile   string
	algo        string
	dataset     string
	samples     int
	model       string
	cores       int
	parallel    int
	workers     int
	budget      int
	target      float64
	seed        uint64
	journal     string
	studyID     string
	visualise   bool
	traceOut    string
	graphOut    string
	policy      string
	quiet       bool
	cvFolds     int
	reportOut   string
	pruner      string
	scheduler   string
	rungMode    string
	metricsAddr string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		if err := replayMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "hpo replay:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.spaceFile, "space", "", "search-space JSON file (required; paper Listing 1 format)")
	flag.StringVar(&o.algo, "algo", "grid", "grid | random | bayes | tpe | hyperband (the rung-driven scheduler; see -rung-mode)")
	flag.StringVar(&o.dataset, "dataset", "mnist", "mnist | cifar10")
	flag.IntVar(&o.samples, "samples", 800, "dataset size (synthetic substitute)")
	flag.StringVar(&o.model, "model", "mlp", "mlp | cnn (unless the space sets 'model')")
	flag.IntVar(&o.cores, "cores", 1, "computing units per experiment task (@constraint)")
	flag.IntVar(&o.parallel, "parallel", goruntime.NumCPU(), "cores of the local 'node' (or per worker with -workers)")
	flag.IntVar(&o.workers, "workers", 0, "run distributed on this many TCP workers (0 = local)")
	flag.IntVar(&o.budget, "budget", 20, "trial budget for random/bayes/tpe (grid ignores; hyperband: max epochs)")
	flag.Float64Var(&o.target, "target", 0, "stop the study at this validation accuracy (0 = off)")
	flag.Uint64Var(&o.seed, "seed", 1, "experiment seed")
	flag.StringVar(&o.journal, "journal", "", "record trials into this hpod study journal; rerunning with the same -study resumes it (enables cross-study memoization)")
	flag.StringVar(&o.studyID, "study", "cli", "study id within the -journal")
	flag.BoolVar(&o.visualise, "visualise", false, "add visualisation + plot tasks (Figure-3 pipeline)")
	flag.StringVar(&o.traceOut, "trace", "", "write a Paraver .prv trace here")
	flag.StringVar(&o.graphOut, "graph", "", "write the task graph DOT here")
	flag.StringVar(&o.policy, "policy", "fifo", "scheduler policy: fifo | priority | lifo | locality")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress per-epoch progress lines")
	flag.IntVar(&o.cvFolds, "cv", 0, "evaluate with k-fold cross-validation (0 = single split)")
	flag.StringVar(&o.reportOut, "report", "", "write a Markdown study report here")
	flag.StringVar(&o.pruner, "pruner", "", "prune losing trials mid-training: none | median | asha")
	flag.StringVar(&o.scheduler, "scheduler", "",
		"rung-driven successive halving over the live report stream: none | hyperband | asha (hyperband is what -algo hyperband runs, and sets it; promotes winners past their budget instead of re-submitting)")
	flag.StringVar(&o.rungMode, "rung-mode", "",
		"how -algo hyperband settles rungs: sync (barrier rungs, needs slots for a whole bracket; default) | async (non-barrier ASHA-style decisions, runs on any capacity, brackets in parallel)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve the Prometheus /metrics exposition on this address for the duration of the run (e.g. 127.0.0.1:9090)")
	flag.Parse()
	// -scheduler hyperband is what -algo hyperband runs: an -algo left at
	// the default follows it; an explicitly conflicting one errors.
	if o.scheduler == "hyperband" {
		algoSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "algo" {
				algoSet = true
			}
		})
		if !algoSet {
			o.algo = "hyperband"
		}
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "hpo:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.spaceFile == "" {
		return fmt.Errorf("-space is required (see configs/ for examples)")
	}
	// The CLI has no control plane, so -metrics-addr is the escape hatch
	// for scraping the same instrument registry hpod exposes: a side
	// listener alive for the duration of the run.
	if o.metricsAddr != "" {
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = obs.Default().WritePrometheus(w)
		})
		go func() { _ = http.Serve(ln, mux) }()
		if !o.quiet {
			fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
		}
	}
	raw, err := os.ReadFile(o.spaceFile)
	if err != nil {
		return err
	}
	space, err := hpo.ParseSpaceJSON(raw)
	if err != nil {
		return err
	}
	// The daemon's spec resolution, so -algo/-scheduler/-rung-mode/-pruner
	// combine exactly as the same fields of an hpod study spec do.
	spec := server.StudySpec{Algo: o.algo, Space: raw, Budget: o.budget, Seed: o.seed,
		CVFolds: o.cvFolds, Pruner: o.pruner, Scheduler: o.scheduler, RungMode: o.rungMode}
	sampler, scheduler, err := spec.BuildDecisions("", "", "")
	if err != nil {
		return err
	}
	policy, err := rt.ParsePolicy(o.policy)
	if err != nil {
		return err
	}
	makeObjective := func() (hpo.Objective, error) {
		ds, err := datasets.ByName(o.dataset, o.samples, o.seed)
		if err != nil {
			return nil, err
		}
		if o.cvFolds > 1 {
			return &hpo.CVObjective{Dataset: ds, Folds: o.cvFolds, Hidden: hpo.DefaultHidden()}, nil
		}
		return &hpo.MLObjective{Dataset: ds, Hidden: hpo.DefaultHidden()}, nil
	}
	objective, err := makeObjective()
	if err != nil {
		return err
	}

	var rec *trace.Recorder
	if o.traceOut != "" {
		rec = trace.NewRecorder()
	}
	constraint := rt.Constraint{Cores: o.cores}

	var runtime *rt.Runtime
	if o.workers > 0 {
		runtime, err = startDistributed(o, constraint, makeObjective, rec)
	} else {
		runtime, err = rt.New(rt.Options{
			Cluster:  cluster.Local(o.parallel),
			Backend:  rt.Real,
			Policy:   policy,
			Recorder: rec,
			Graph:    o.graphOut != "",
		})
	}
	if err != nil {
		return err
	}

	mode := fmt.Sprintf("%d-core node", o.parallel)
	if o.workers > 0 {
		mode = fmt.Sprintf("%d TCP workers × %d cores", o.workers, o.parallel)
	}
	fmt.Printf("hpo: %s search, %s model, %d-core tasks on %s\n", o.algo, o.model, o.cores, mode)
	if o.algo == "grid" {
		fmt.Printf("hpo: grid size %d\n", space.Size())
	}

	studyOpts := hpo.StudyOptions{
		Space:          space,
		Sampler:        sampler,
		Objective:      objective,
		Runtime:        runtime,
		Constraint:     constraint,
		TargetAccuracy: o.target,
		Seed:           o.seed,
		Scheduler:      scheduler,
		Visualise:      o.visualise && o.workers == 0,
	}
	if o.journal != "" {
		journal, err := store.OpenJournal(o.journal, store.JournalOptions{})
		if err != nil {
			return err
		}
		defer journal.Close()
		if _, err := journal.GetStudy(o.studyID); err != nil {
			if err := journal.CreateStudy(store.StudyMeta{ID: o.studyID, Name: o.studyID}); err != nil {
				return err
			}
		}
		scope := store.MemoScope(o.dataset, o.samples, o.cvFolds, hpo.DefaultHidden(), o.seed, o.target)
		studyOpts.Recorder = journal.Recorder(o.studyID, scope)
	}
	if !o.quiet {
		// Epoch reports stream from remote workers too, so the progress
		// lines (and pruning) no longer need a local backend.
		studyOpts.OnEpoch = func(trial, epoch int, acc float64) {
			fmt.Printf("  trial %2d epoch %2d: val_acc %.4f\n", trial, epoch, acc)
		}
	}
	if o.workers > 0 {
		// Distributed rounds must return to the master so it can detect the
		// target accuracy from results.
		studyOpts.BatchSize = o.workers * maxInt(1, o.parallel/o.cores)
	}

	study, err := hpo.NewStudy(studyOpts)
	if err != nil {
		return err
	}
	res, err := study.Run()
	if err != nil {
		return err
	}
	stats := runtime.Stats()

	fmt.Println()
	fmt.Print(hpo.RenderCurves(res.Trials, 72, 16))
	fmt.Println()
	fmt.Print(hpo.RenderTable(res.Trials))
	fmt.Printf("\nstudy: %d trials (%d resumed, %d memoized, %d pruned), best %.4f, wall %v, runtime completed=%d retried=%d canceled=%d\n",
		len(res.Trials), res.Resumed, res.Memoized, res.Pruned, res.BestAccuracy(), res.Duration.Round(1e7),
		stats.Completed, stats.Retried, stats.Canceled)
	if res.Stopped {
		fmt.Println("study: stopped early — target accuracy reached")
	}
	if res.Plot != "" {
		fmt.Println()
		fmt.Println(res.Plot)
	}

	if o.reportOut != "" {
		f, err := os.Create(o.reportOut)
		if err != nil {
			return err
		}
		if err := hpo.WriteReport(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("report written to", o.reportOut)
	}
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, rec); err != nil {
			return err
		}
		fmt.Println("trace written to", o.traceOut)
	}
	if o.graphOut != "" && o.workers == 0 {
		dot, err := runtime.ExportDOT("hpo")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.graphOut, []byte(dot), 0o644); err != nil {
			return err
		}
		fmt.Println("task graph written to", o.graphOut)
	}
	runtime.Shutdown()
	return nil
}

// startDistributed builds a Remote-backend runtime with o.workers in-process
// workers connected over real TCP, each holding its own objective copy —
// the paper's "the user just has to request more nodes" path.
func startDistributed(o options, constraint rt.Constraint,
	makeObjective func() (hpo.Objective, error), rec *trace.Recorder) (*rt.Runtime, error) {

	runtime, err := rt.New(rt.Options{Backend: rt.Remote, Recorder: rec})
	if err != nil {
		return nil, err
	}
	err = hpo.ServeWorkers(runtime, makeObjective, constraint, o.seed, o.target,
		o.workers, o.parallel, func(err error) {
			fmt.Fprintln(os.Stderr, "hpo: worker exited:", err)
		})
	if err != nil {
		runtime.Shutdown()
		return nil, err
	}
	return runtime, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func writeTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteParaver(f, rec); err != nil {
		return err
	}
	rowPath := path + ".row"
	rf, err := os.Create(rowPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	return trace.WriteParaverRow(rf, rec)
}

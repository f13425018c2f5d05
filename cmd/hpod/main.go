// Command hpod is the HPO-as-a-service daemon: it exposes the study
// runtime behind a persistent HTTP control plane. Studies are created via
// JSON specs, executed asynchronously on the task runtime (local threads or
// TCP workers), and every finished trial is journaled — killing the daemon
// mid-study and restarting it resumes exactly where it stopped, with no
// re-execution of finished trials. Identical trial configs across studies
// are answered from the journal's memo index instead of retraining.
//
// Usage:
//
//	hpod -addr :8080 -journal hpod.journal [-backend local] [-parallel 8]
//	     [-workers 3] [-max-studies 2] [-drain 30s] [-migrate study.json]
//	     [-token secret] [-tenants tenants.json] [-queue-depth 16]
//	     [-retry-after 1s] [-pruner median] [-scheduler hyperband]
//	     [-rung-mode async]
//	     [-retain-events 1024] [-max-open-segments 128]
//	     [-compact-interval 10m] [-verify-on-compact=true]
//
// With -tenants the daemon is multi-tenant (docs/TENANCY.md): each
// registered bearer token maps to a tenant namespace with its own study
// ids, listings, and quota envelope (concurrent studies, total epoch
// budget, SSE subscribers, fair-share weight). Starts beyond quota are
// rejected 429, a full waiting room 503 — both with a Retry-After hint.
//
// The journal is a sharded directory store (docs/JOURNAL.md): terminal
// studies are compacted down to their summary records on -compact-interval
// (or on demand via POST /v1/admin/compact), so boot replay stays fast no
// matter how much per-epoch telemetry history the daemon has served.
//
// The daemon is observable without auth on two endpoints: GET /healthz
// (liveness + journal stats) and GET /metrics (Prometheus text exposition
// of the runtime/store/scheduler/HTTP instrument registry —
// docs/OBSERVABILITY.md). Per-study execution timelines are served on
// GET /v1/studies/{id}/timeline (JSON gantt) and .../timeline.prv
// (Paraver trace).
//
// See the README's "hpod HTTP API" section for the endpoint reference and
// an example curl session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	goruntime "runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpo"
	rt "repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/store"
)

type options struct {
	addr            string
	journal         string
	backend         string
	parallel        int
	workers         int
	maxStudies      int
	drain           time.Duration
	migrate         string
	noResume        bool
	token           string
	tenants         string
	queueDepth      int
	retryAfter      time.Duration
	pruner          string
	scheduler       string
	rungMode        string
	retainEvents    int
	maxOpenSegments int
	compactInterval time.Duration
	verifyOnCompact bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	flag.StringVar(&o.journal, "journal", "hpod.journal", "append-only study journal path")
	flag.StringVar(&o.backend, "backend", "local", "study execution backend: local | remote")
	flag.IntVar(&o.parallel, "parallel", goruntime.NumCPU(), "cores of the local node (or per remote worker)")
	flag.IntVar(&o.workers, "workers", 2, "TCP workers per study for -backend remote")
	flag.IntVar(&o.maxStudies, "max-studies", 2, "studies executing concurrently")
	flag.DurationVar(&o.drain, "drain", 30*time.Second, "max wait for running studies on shutdown")
	flag.StringVar(&o.migrate, "migrate", "", "import a legacy checkpoint JSON file into the journal, then continue")
	flag.BoolVar(&o.noResume, "no-resume", false, "do not re-queue studies left running by a previous daemon")
	flag.StringVar(&o.token, "token", "", "bearer token required on every endpoint except /healthz (empty = no auth)")
	flag.StringVar(&o.tenants, "tenants", "",
		"tenant registry JSON file (docs/TENANCY.md): per-tenant bearer tokens, namespaces and quotas; supersedes -token")
	flag.IntVar(&o.queueDepth, "queue-depth", 0,
		"max studies waiting for an execution slot before starts are rejected 503 (0 = unbounded)")
	flag.DurationVar(&o.retryAfter, "retry-after", time.Second,
		"Retry-After hint attached to 429/503 admission rejections")
	flag.StringVar(&o.pruner, "pruner", "", "default trial pruner for specs that set none: none | median | asha")
	flag.StringVar(&o.scheduler, "scheduler", "",
		"default rung-driven scheduler for specs that set none: none | hyperband | asha (supersedes -pruner when active)")
	flag.StringVar(&o.rungMode, "rung-mode", "",
		"default rung mode for specs that set none: sync (barrier rungs; default) | async (non-barrier, runs on any capacity) — use async when the backend is smaller than a Hyperband bracket")
	flag.IntVar(&o.retainEvents, "retain-events", 0,
		"per-study in-memory event window for SSE resume (0 = default, negative = unbounded)")
	flag.IntVar(&o.maxOpenSegments, "max-open-segments", 0,
		"open segment file-handle ceiling across studies (0 = default 128, negative = unbounded)")
	flag.DurationVar(&o.compactInterval, "compact-interval", 10*time.Minute,
		"how often terminal studies' journal segments are compacted in the background (0 = only on POST /v1/admin/compact)")
	flag.BoolVar(&o.verifyOnCompact, "verify-on-compact", true,
		"replay-verify each study before compaction drops its decision stream; failing studies are left uncompacted")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "hpod:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	d, err := newDaemon(o)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.Start(); err != nil {
		return err
	}
	fmt.Printf("hpod: serving on http://%s (journal %s, %s backend, %d concurrent studies, metrics on /metrics)\n",
		d.Addr(), o.journal, o.backend, o.maxStudies)
	<-ctx.Done()
	fmt.Println("hpod: shutting down")
	return d.Stop()
}

// daemon owns the store, control plane and HTTP listener; tests drive it
// in-process to exercise kill/restart behaviour.
type daemon struct {
	opts    options
	journal *store.Journal
	srv     *server.Server
	http    *http.Server
	ln      net.Listener
	served  chan error
}

// newDaemon opens the journal (replaying it) and wires the control plane;
// nothing listens until Start.
func newDaemon(o options) (*daemon, error) {
	// A mistyped -pruner or -scheduler must fail the boot, not every
	// future study.
	if _, err := hpo.NewPruner(o.pruner, 0, 0); err != nil {
		return nil, err
	}
	if !hpo.KnownScheduler(o.scheduler) {
		return nil, fmt.Errorf("unknown -scheduler %q (want none, hyperband or asha)", o.scheduler)
	}
	if !hpo.KnownRungMode(o.rungMode) {
		return nil, fmt.Errorf("unknown -rung-mode %q (want sync or async)", o.rungMode)
	}
	// The registry must parse before the journal opens: a bad tenants file
	// fails the boot, it does not run the daemon open to everyone.
	var registry *server.TenantRegistry
	if o.tenants != "" {
		if o.token != "" {
			return nil, fmt.Errorf("-token and -tenants are mutually exclusive (the registry carries the tokens)")
		}
		reg, err := server.LoadTenantRegistry(o.tenants)
		if err != nil {
			return nil, err
		}
		registry = reg
	}
	journal, err := store.OpenJournal(o.journal, store.JournalOptions{
		RetainEvents:    o.retainEvents,
		MaxOpenSegments: o.maxOpenSegments,
		CompactInterval: o.compactInterval,
	})
	if err != nil {
		return nil, err
	}
	if o.migrate != "" {
		n, err := store.MigrateCheckpoint(journal, "migrated", o.migrate)
		if err != nil {
			journal.Close()
			return nil, err
		}
		fmt.Printf("hpod: migrated %d trials from %s\n", n, o.migrate)
	}
	srv := server.New(journal, runtimeFactory(o), o.maxStudies)
	srv.SetAuthToken(o.token)
	if registry != nil {
		srv.SetTenantRegistry(registry)
	}
	srv.Runner().SetQueueDepth(o.queueDepth)
	srv.SetRetryAfter(o.retryAfter)
	srv.Runner().DefaultPruner = o.pruner
	srv.Runner().DefaultScheduler = o.scheduler
	srv.Runner().DefaultRungMode = o.rungMode
	if !o.verifyOnCompact {
		journal.SetCompactVerify(nil)
	}
	d := &daemon{
		opts:    o,
		journal: journal,
		srv:     srv,
		http:    &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
	}
	return d, nil
}

// Start binds the listener, re-queues interrupted studies and serves HTTP
// in the background.
func (d *daemon) Start() error {
	ln, err := net.Listen("tcp", d.opts.addr)
	if err != nil {
		d.journal.Close()
		return err
	}
	d.ln = ln
	if !d.opts.noResume {
		n, err := d.srv.Runner().Resume()
		if err != nil {
			d.journal.Close()
			ln.Close()
			return fmt.Errorf("resuming journaled studies: %w", err)
		}
		if n > 0 {
			fmt.Printf("hpod: resumed %d interrupted stud(y/ies) from the journal\n", n)
		}
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address.
func (d *daemon) Addr() string { return d.ln.Addr().String() }

// Stop shuts down gracefully: stop accepting HTTP, drain running studies up
// to the configured timeout, then close the journal. Studies abandoned by
// the drain timeout resume from the journal on the next Start.
func (d *daemon) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx)
	if drained := d.srv.Runner().Close(d.opts.drain); !drained {
		fmt.Fprintln(os.Stderr, "hpod: drain timeout — abandoning running studies (journal will resume them)")
	}
	err := d.journal.Close()
	select {
	case serr := <-d.served:
		if serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	default:
	}
	return err
}

// runtimeFactory builds per-study runtimes for the configured backend.
func runtimeFactory(o options) server.RuntimeFactory {
	switch o.backend {
	case "remote":
		return remoteFactory(o)
	default:
		return localFactory(o)
	}
}

// localFactory executes trials on goroutines against a single simulated
// node with -parallel cores.
func localFactory(o options) server.RuntimeFactory {
	return func(spec server.StudySpec) (*rt.Runtime, func(), error) {
		runtime, err := rt.New(rt.Options{
			Cluster: cluster.Local(o.parallel),
			Backend: rt.Real,
		})
		if err != nil {
			return nil, nil, err
		}
		return runtime, runtime.Shutdown, nil
	}
}

// remoteFactory spins up -workers in-process TCP workers per study — the
// paper's scale-out path behind the service API. Each worker holds its own
// objective copy, like COMPSs workers reading from the parallel filesystem.
func remoteFactory(o options) server.RuntimeFactory {
	return func(spec server.StudySpec) (*rt.Runtime, func(), error) {
		runtime, err := rt.New(rt.Options{Backend: rt.Remote})
		if err != nil {
			return nil, nil, err
		}
		// The daemon is long-lived and builds one of these per study
		// execution, so the bootstrap (and this error path) must release
		// everything acquired.
		err = hpo.ServeWorkers(runtime, spec.BuildObjective, rt.Constraint{Cores: spec.Cores},
			spec.Seed, spec.Target, o.workers, o.parallel, func(err error) {
				fmt.Fprintln(os.Stderr, "hpod: worker exited:", err)
			})
		if err != nil {
			runtime.Shutdown()
			return nil, nil, err
		}
		return runtime, runtime.Shutdown, nil
	}
}

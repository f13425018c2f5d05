package hpo

import (
	"time"

	"repro/internal/comm"
	"repro/internal/runtime"
)

// ServeWorkers is the shared scale-out bootstrap used by cmd/hpo and
// cmd/hpod: it registers the distributed experiment task on the Remote
// master rt, starts n in-process TCP workers (each holding its own
// objective copy, as COMPSs workers read from the parallel filesystem)
// and attaches them. On error every resource acquired here is released;
// the caller still owns rt. onWorkerExit, when non-nil, observes worker
// serve-loop errors.
func ServeWorkers(rt *runtime.Runtime, makeObjective func() (Objective, error),
	constraint runtime.Constraint, seed uint64, target float64,
	workers, coresPerWorker int, onWorkerExit func(error)) error {

	RegisterWireTypes()
	masterObj, err := makeObjective()
	if err != nil {
		return err
	}
	if err := rt.Register(ExperimentTaskDef(masterObj, constraint, seed, target)); err != nil {
		return err
	}
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	for i := 0; i < workers; i++ {
		obj, err := makeObjective()
		if err != nil {
			ln.Close()
			return err
		}
		w := runtime.NewWorker(coresPerWorker, 0)
		if err := w.Register(ExperimentTaskDef(obj, constraint, seed, target)); err != nil {
			ln.Close()
			return err
		}
		go func() {
			if err := w.ConnectAndServe(ln.Addr()); err != nil && onWorkerExit != nil {
				onWorkerExit(err)
			}
		}()
	}
	if err := rt.ListenAndAttach(ln, workers); err != nil {
		ln.Close()
		return err
	}
	// All workers are attached over accepted connections; the listener
	// itself is no longer needed and would otherwise leak one fd per study
	// execution in the long-lived daemon.
	ln.Close()
	return nil
}

// RegisterWireTypes registers the HPO types that cross gob transports when
// a study runs on the Remote backend. Call once in both master and worker
// processes before attaching workers.
func RegisterWireTypes() {
	comm.RegisterGobTypes(Config{}, TrialResult{}, TrialMetrics{})
}

// ExperimentTaskDef builds the "experiment" task definition used by both
// local studies and distributed workers: the same (trialID, config) →
// TrialResult contract, executed against the given objective (each worker
// holds its own dataset copy, as COMPSs workers read from the PFS).
//
// Per-epoch metrics stream back to the master through TaskContext.Report —
// in-process on the Real backend, over the worker transport on Remote — so
// the master-side Study can prune losing trials and stop at the target
// accuracy off-node, not just locally. Cancellation arrives cooperatively
// through TaskContext.Canceled and stops the training at the next epoch
// boundary with a partial result.
func ExperimentTaskDef(obj Objective, constraint runtime.Constraint, seed uint64, targetAcc float64) runtime.TaskDef {
	return runtime.TaskDef{
		Name:       taskName,
		Returns:    1,
		Constraint: constraint,
		Fn: func(ctx *runtime.TaskContext, args []interface{}) ([]interface{}, error) {
			return runExperimentBody(obj, seed, targetAcc, ctx, args)
		},
	}
}

// runExperimentBody executes one trial against the objective, wiring the
// task context's streaming and cancellation into the objective contract.
// The task never errors at the runtime level for objective failures: a
// failed experiment is a result, not a scheduling fault (a Python exception
// in one training would not crash the COMPSs master).
func runExperimentBody(obj Objective, seed uint64, targetAcc float64,
	ctx *runtime.TaskContext, args []interface{}) ([]interface{}, error) {

	trialID := args[0].(int)
	cfg := args[1].(Config)
	t0 := time.Now()

	octx := ObjectiveContext{
		Config:         cfg,
		Parallelism:    ctx.Cores,
		Seed:           seed + uint64(trialID)*0x9e37,
		TargetAccuracy: targetAcc,
	}
	if report := ctx.Report; report != nil {
		octx.Report = func(epoch int, acc float64) { report(epoch, acc) }
	}
	if done := ctx.Canceled; done != nil {
		octx.Halt = func() string {
			select {
			case <-done:
				return "canceled by master"
			default:
				return ""
			}
		}
	}
	// Rung-driven trials carry their promotion ceiling in the hidden
	// "_hb_max" key: activate the runtime's budget gate at the configured
	// num_epochs so the master can halt or extend the trial at rung
	// boundaries without re-submitting it. Backends without gates (and
	// configs without a ceiling) train exactly num_epochs, as before.
	if gate := ctx.Budget; gate != nil && gated(cfg) {
		gate.SetLimit(cfg.Int("num_epochs", 0))
		octx.EpochCeiling = cfg.Int("_hb_max", 0)
		octx.Proceed = gate.Allow
	}

	metrics, err := obj.Run(octx)
	res := TrialResult{
		ID: trialID, Config: cfg, TrialMetrics: metrics,
		Duration: time.Since(t0),
	}
	if err != nil {
		res.Err = err.Error()
	}
	return []interface{}{res}, nil
}

// gated reports whether a trial's config arms its budget gate: a configured
// num_epochs below the "_hb_max" promotion ceiling.
func gated(cfg Config) bool {
	base := cfg.Int("num_epochs", 0)
	return base > 0 && cfg.Int("_hb_max", 0) > base
}

// Package runtime implements a COMPSs-like task-based runtime in Go: the
// substrate the paper's HPO scheme is built on. Sequential-looking code
// submits named tasks; the runtime builds a data-dependency graph from the
// futures flowing between them, schedules ready tasks onto cluster nodes
// respecting per-task resource constraints (CPU computing units and GPUs,
// with core-level affinity), retries failed tasks first on the same node and
// then elsewhere, transfers data between nodes (or assumes a parallel file
// system), records Extrae/Paraver-style traces, and exports the task graph
// in DOT form.
//
// The analogue of the paper's PyCOMPSs API surface:
//
//	@task + @constraint  →  runtime.Register(runtime.TaskDef{...})
//	experiment(config)   →  fut := rt.Submit("experiment", config)
//	compss_wait_on(r)    →  vals, err := rt.WaitOn(fut)
//
// Three interchangeable backends execute tasks: Real (goroutines on the
// local machine, wall-clock time), Sim (discrete-event simulation over a
// cluster.Spec with a perfmodel cost function, virtual time) and Remote
// (workers connected over comm transports).
package runtime

import (
	"fmt"
	"time"
)

// Constraint mirrors the paper's @constraint decorator: the computing units
// a task needs. A task runs only on a node with this many free cores and
// GPUs, and the scheduler grants it specific core indices (affinity).
//
// Nodes > 1 makes this a multi-node task (the @multinode decorator): the
// scheduler reserves Cores cores and GPUs GPUs on each of Nodes distinct
// nodes simultaneously, as for an MPI-style training job.
type Constraint struct {
	Cores int
	GPUs  int
	// Nodes is the number of nodes spanned (default 1).
	Nodes int
}

// Normalise applies the defaults of one core on one node.
func (c Constraint) Normalise() Constraint {
	if c.Cores < 1 {
		c.Cores = 1
	}
	if c.GPUs < 0 {
		c.GPUs = 0
	}
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	return c
}

// TaskContext is passed to executing task functions with the granted
// resources, so a task can bound its internal parallelism to its computing
// units ("if a task has built-in parallelism, PyCOMPSs will not interfere").
type TaskContext struct {
	// TaskID is the invocation id (matches graph node numbering).
	TaskID int
	// Node is the node the task was placed on.
	Node int
	// Cores and GPUs are the granted resources.
	Cores int
	GPUs  int
	// CoreIDs are the specific core indices granted on Node (affinity set).
	CoreIDs []int
	// NodeIDs lists every node spanned by a multi-node task (NodeIDs[0] ==
	// Node); single-node tasks see exactly one entry.
	NodeIDs []int
	// Attempt counts executions of this invocation (0 = first try).
	Attempt int
	// Report, when non-nil, streams an intermediate (epoch, value) metric
	// point back to the submitting master — locally via the runtime's
	// report handler, remotely over the worker transport. Backends that
	// cannot stream leave it nil; task bodies must tolerate that.
	Report func(epoch int, value float64)
	// Canceled, when non-nil, is closed if the master cancels this task
	// mid-flight (trial pruning, study cancellation). Cancellation is
	// cooperative: the task should observe the channel at convenient
	// boundaries (e.g. epoch ends) and return early with a partial result.
	Canceled <-chan struct{}
	// Budget, when non-nil, is the task's epoch-budget gate: a task
	// submitted with a small initial budget activates it (SetLimit) and
	// consults Allow at epoch boundaries; the master may later raise the
	// ceiling via Runtime.ExtendTask so the task continues training the
	// same in-memory state instead of being re-submitted (rung-driven
	// successive halving). Backends that cannot deliver extensions leave it
	// nil; task bodies must tolerate that.
	Budget *BudgetGate
}

// TaskFunc is the body of a task. Args are the submitted arguments with any
// futures already resolved to their values. The returned slice must have
// exactly TaskDef.Returns elements.
type TaskFunc func(ctx *TaskContext, args []interface{}) ([]interface{}, error)

// CostFunc models a task's duration for simulated execution. It receives
// the resolved arguments and the granted resources.
type CostFunc func(args []interface{}, res SimResources) time.Duration

// SimResources describes the granted resources plus node speed factors, the
// inputs a perfmodel cost function needs.
type SimResources struct {
	Cores     int
	GPUs      int
	CoreSpeed float64
	GPUSpeed  float64
	Node      int
}

// TaskDef registers a task type, combining the paper's @task and
// @constraint decorators.
type TaskDef struct {
	// Name is the task-type name used by Submit; it also names graph nodes
	// (e.g. "experiment", "visualisation", "plot").
	Name string
	// Fn is the executable body (required for Real and Remote backends).
	Fn TaskFunc
	// Cost models duration in simulation (required for the Sim backend).
	Cost CostFunc
	// Constraint declares required resources (default: one core).
	Constraint Constraint
	// Returns is the number of result values (and futures). Zero-return
	// tasks still yield one sync future so callers can wait on them.
	Returns int
	// Priority hints the scheduler to start these tasks as soon as possible
	// (the priority=True hint of the @task decorator).
	Priority bool
	// MaxRetries is the number of re-executions after a failure: the first
	// retry is pinned to the same node, later ones exclude it (paper §3
	// "Fault Tolerance"). Zero means the default of 2; use -1 to disable
	// retries entirely.
	MaxRetries int
	// InputBytes estimates argument payload size for data-transfer
	// modelling and locality scheduling. Zero means negligible.
	InputBytes int64
	// Timeout bounds one attempt's execution (0 = unbounded) — the COMPSs
	// task time_out property. A timed-out attempt fails and consumes a
	// retry. Real and Sim backends.
	Timeout time.Duration
}

func (d TaskDef) normalise() (TaskDef, error) {
	if d.Name == "" {
		return d, fmt.Errorf("runtime: task definition needs a name")
	}
	d.Constraint = d.Constraint.Normalise()
	if d.Returns < 0 {
		return d, fmt.Errorf("runtime: task %q has negative Returns", d.Name)
	}
	if d.MaxRetries == 0 {
		d.MaxRetries = 2
	}
	if d.MaxRetries < 0 {
		d.MaxRetries = 0
	}
	return d, nil
}

// invState is the lifecycle of one task invocation.
type invState int

const (
	stateBlocked invState = iota // waiting on input futures
	stateReady                   // inputs resolved, waiting for resources
	stateRunning
	stateDone
	stateFailed
	stateCanceled
)

func (s invState) String() string {
	switch s {
	case stateBlocked:
		return "blocked"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	case stateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// invocation is one submitted task instance.
type invocation struct {
	id   int
	def  TaskDef
	args []interface{}
	// deps are the producing invocations this one waits for.
	deps map[int]*invocation
	// dependents are invocations waiting on this one.
	dependents []*invocation
	state      invState
	// outs are the futures this invocation resolves.
	outs []*Future
	// attempt counts executions; pinNode/excludeNode implement the
	// same-node-then-elsewhere retry policy.
	attempt     int
	pinNode     int // -1 when unpinned
	excludeNode map[int]bool
	// placement after dispatch: one allocation per spanned node (exactly
	// one for ordinary tasks). allocs[0] is the primary node used for
	// retry pinning and event attribution.
	allocs  []nodeAlloc
	started time.Duration
	// err holds the final failure.
	err error
	// cancel is closed (under rt.mu, via cancelSignaled) to signal a
	// cooperative mid-flight cancellation to a locally running attempt.
	cancel         chan struct{}
	cancelSignaled bool
	// gate is the attempt's epoch-budget gate (Real backend; remote workers
	// hold their own per-task gates). Fresh per attempt, like cancel.
	gate *BudgetGate
}

// nodeAlloc is the resources an invocation holds on one node.
type nodeAlloc struct {
	node    int
	coreIDs []int
	gpuIDs  []int
}

// primaryNode returns the node hosting the task's first allocation, or -1
// before placement.
func (inv *invocation) primaryNode() int {
	if len(inv.allocs) == 0 {
		return -1
	}
	return inv.allocs[0].node
}

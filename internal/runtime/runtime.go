package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/graphdot"
	"repro/internal/trace"
)

// BackendKind selects how tasks execute.
type BackendKind int

// Available backends.
const (
	// Real executes task functions on goroutines, wall-clock time. The
	// cluster spec acts as a resource token pool (normally cluster.Local).
	Real BackendKind = iota
	// Sim executes tasks on a discrete-event engine with virtual time,
	// using each task's Cost function. Use for node counts the local
	// machine cannot host. Sim runtimes must be driven from one goroutine.
	Sim
	// Remote executes tasks on workers connected via comm transports;
	// nodes are created per registered worker (see AttachWorker).
	Remote
)

// Options configures a Runtime.
type Options struct {
	// Cluster lists the nodes (ignored for Remote, which builds nodes from
	// worker registrations).
	Cluster cluster.Spec
	// Backend selects execution mode (default Real).
	Backend BackendKind
	// Policy selects the scheduling policy (default FIFO).
	Policy Policy
	// Recorder, when non-nil, receives Paraver-style trace records. Leave
	// nil to disable tracing — the paper's "simple flag" (§5).
	Recorder *trace.Recorder
	// Graph, when true, records the task dependency graph for ExportDOT.
	Graph bool
	// TransferBytesPerSec models data movement when a task's inputs were
	// produced on another node and no parallel filesystem is assumed.
	// Zero means PFS semantics: data is visible everywhere at no cost (§4:
	// "most HPC clusters are equipped with PFS"). Sim backend only.
	TransferBytesPerSec float64
	// FaultInjector, when non-nil (Sim only), is consulted as each task
	// finishes; a non-nil error makes that attempt fail, exercising the
	// retry path under virtual time.
	FaultInjector func(taskID, attempt, node int) error
	// HeartbeatTimeout, when > 0 (Remote only), declares a worker dead if
	// no message (heartbeats included) arrives within this window; its
	// running tasks are resubmitted elsewhere. Workers send heartbeats
	// automatically (see Worker.SetHeartbeatInterval).
	HeartbeatTimeout time.Duration
}

// Runtime is the task runtime. Create with New, register TaskDefs, Submit
// tasks, WaitOn futures, and Shutdown when done.
type Runtime struct {
	mu   sync.Mutex
	cond *sync.Cond
	opts Options
	defs map[string]TaskDef

	nodes []*nodeState
	ready []*invocation
	invs  []*invocation

	nextData int
	pending  int // invocations not yet done/failed/canceled
	closed   bool

	backend backend
	rec     *trace.Recorder
	graph   *graphBuilder

	// reportFn receives intermediate (taskID, epoch, value) metric points
	// streamed by running tasks (set via SetTaskReportHandler).
	reportFn func(taskID, epoch int, value float64)

	// stats
	started   int
	retried   int
	failed    int
	completed int
	canceled  int
}

// New constructs a runtime. For Real and Sim backends the cluster spec must
// validate; Remote starts with zero nodes until workers attach.
func New(opts Options) (*Runtime, error) {
	rt := &Runtime{
		opts: opts,
		defs: make(map[string]TaskDef),
		rec:  opts.Recorder,
	}
	rt.cond = sync.NewCond(&rt.mu)
	if opts.Graph {
		rt.graph = newGraphBuilder()
	}
	switch opts.Backend {
	case Real:
		if err := opts.Cluster.Validate(); err != nil {
			return nil, err
		}
		for _, n := range opts.Cluster.Nodes {
			rt.nodes = append(rt.nodes, newNodeState(n))
		}
		rt.backend = newRealBackend(rt)
	case Sim:
		if err := opts.Cluster.Validate(); err != nil {
			return nil, err
		}
		for _, n := range opts.Cluster.Nodes {
			rt.nodes = append(rt.nodes, newNodeState(n))
		}
		rt.backend = newSimBackend(rt)
	case Remote:
		rt.backend = newRemoteBackend(rt)
	default:
		return nil, fmt.Errorf("runtime: unknown backend %d", opts.Backend)
	}
	return rt, nil
}

// Register adds a task definition. It returns an error for invalid
// definitions or duplicate names.
func (rt *Runtime) Register(def TaskDef) error {
	def, err := def.normalise()
	if err != nil {
		return err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.defs[def.Name]; dup {
		return fmt.Errorf("runtime: task %q already registered", def.Name)
	}
	if rt.opts.Backend != Sim && def.Fn == nil {
		return fmt.Errorf("runtime: task %q needs Fn for this backend", def.Name)
	}
	if rt.opts.Backend == Sim && def.Cost == nil {
		return fmt.Errorf("runtime: task %q needs Cost for the Sim backend", def.Name)
	}
	if rt.opts.Backend == Remote && def.Constraint.Nodes > 1 {
		return fmt.Errorf("runtime: task %q: multi-node tasks are not supported on the Remote backend", def.Name)
	}
	rt.defs[def.Name] = def
	return nil
}

// MustRegister is Register that panics on error, for program setup code.
func (rt *Runtime) MustRegister(def TaskDef) {
	if err := rt.Register(def); err != nil {
		panic(err)
	}
}

// Registered reports whether a task definition with this name exists.
func (rt *Runtime) Registered(name string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, ok := rt.defs[name]
	return ok
}

// Submit enqueues one invocation of a registered task. Arguments may be
// plain values, *Future (read dependency) or InOut (read-write dependency).
// It returns one future per declared return value; zero-return tasks yield
// a single synchronisation future resolving to nil. For each InOut argument
// an additional future (the new data version) is appended.
func (rt *Runtime) Submit(name string, args ...interface{}) ([]*Future, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, errors.New("runtime: Submit after Shutdown")
	}
	def, ok := rt.defs[name]
	if !ok {
		return nil, fmt.Errorf("runtime: task %q not registered", name)
	}
	for _, a := range args {
		if f, isFut := futureArg(a); isFut && f.rt != rt {
			return nil, fmt.Errorf("runtime: future from another runtime passed to %q", name)
		}
	}
	inv := &invocation{
		id:      len(rt.invs) + 1,
		def:     def,
		args:    append([]interface{}(nil), args...),
		deps:    make(map[int]*invocation),
		pinNode: -1,
		state:   stateBlocked,
	}
	rt.invs = append(rt.invs, inv)
	rt.pending++
	obsTasksSubmitted.Inc()

	// Wire dependencies and graph edges.
	var inouts []*Future
	for _, a := range args {
		f, isFut := futureArg(a)
		if !isFut {
			continue
		}
		if !f.resolved {
			inv.deps[f.producer.id] = f.producer
			f.producer.dependents = append(f.producer.dependents, inv)
		}
		if rt.graph != nil && f.producer != nil {
			rt.graph.addEdge(f.producer.id, inv.id, f.ID())
		}
		if io, isInOut := a.(InOut); isInOut {
			inouts = append(inouts, io.Future)
		}
	}

	// Result futures: declared returns, then InOut new versions.
	nOut := def.Returns
	if nOut == 0 {
		nOut = 1
	}
	for i := 0; i < nOut; i++ {
		rt.nextData++
		inv.outs = append(inv.outs, &Future{
			rt: rt, producer: inv, index: i,
			dataID: rt.nextData, version: 1, producedOn: -1,
		})
	}
	for _, src := range inouts {
		inv.outs = append(inv.outs, &Future{
			rt: rt, producer: inv, index: -1,
			dataID: src.dataID, version: src.version + 1, producedOn: -1,
		})
	}

	if rt.graph != nil {
		rt.graph.addNode(inv.id, def.Name)
	}

	if len(inv.deps) == 0 {
		inv.state = stateReady
		rt.ready = append(rt.ready, inv)
	}
	rt.dispatch()
	return inv.outs, nil
}

// Submit1 is Submit for the common single-future case.
func (rt *Runtime) Submit1(name string, args ...interface{}) (*Future, error) {
	futs, err := rt.Submit(name, args...)
	if err != nil {
		return nil, err
	}
	return futs[0], nil
}

// dispatch places as many ready tasks as resources allow. Callers hold
// rt.mu.
func (rt *Runtime) dispatch() {
	for {
		progress := false
		order := rt.orderReady()
		for _, i := range order {
			inv := rt.ready[i]
			if inv == nil {
				continue
			}
			nodes := rt.pickNodes(inv)
			if nodes == nil {
				if !rt.schedulable(inv) {
					// No node set can ever run it (e.g. constraint larger
					// than every node, or all candidates down): fail fast.
					rt.ready[i] = nil
					rt.finishLocked(inv, nil, fmt.Errorf(
						"runtime: task %d (%s) unschedulable: needs %d cores / %d gpus",
						inv.id, inv.def.Name, inv.def.Constraint.Cores, inv.def.Constraint.GPUs), true)
					progress = true
				}
				continue // wait for resources (paper §4: "tasks wait")
			}
			rt.ready[i] = nil
			rt.place(inv, nodes)
			progress = true
		}
		rt.compactReady()
		if !progress {
			return
		}
	}
}

func (rt *Runtime) compactReady() {
	out := rt.ready[:0]
	for _, inv := range rt.ready {
		if inv != nil {
			out = append(out, inv)
		}
	}
	rt.ready = out
}

// place assigns inv to its node set and launches it. Callers hold rt.mu.
func (rt *Runtime) place(inv *invocation, nodes []*nodeState) {
	// Fresh cancellation signal and budget gate per attempt: a retried
	// invocation must not observe a cancel or an extension aimed at its
	// previous attempt.
	inv.cancel = make(chan struct{})
	inv.cancelSignaled = false
	inv.gate = NewBudgetGate()
	inv.allocs = inv.allocs[:0]
	for _, n := range nodes {
		coreIDs, gpuIDs := n.allocate(inv.def.Constraint)
		inv.allocs = append(inv.allocs, nodeAlloc{node: n.spec.ID, coreIDs: coreIDs, gpuIDs: gpuIDs})
	}
	inv.state = stateRunning
	inv.started = rt.backend.now()
	rt.started++
	obsTasksStarted.Inc()

	rt.rec.RecordEvent(trace.Event{
		Node: inv.primaryNode(), Core: inv.allocs[0].coreIDs[0], At: inv.started,
		Type: trace.EventTaskStart, Value: int64(inv.id),
	})

	args := rt.resolveArgs(inv)
	rt.backend.launch(inv, args)
}

// resolveArgs substitutes resolved future values into the argument list.
// Callers hold rt.mu; all dependencies are resolved by construction.
func (rt *Runtime) resolveArgs(inv *invocation) []interface{} {
	out := make([]interface{}, len(inv.args))
	for i, a := range inv.args {
		if f, ok := futureArg(a); ok {
			if !f.resolved {
				panic(fmt.Sprintf("runtime: dispatching task %d with unresolved input %s", inv.id, f.ID()))
			}
			out[i] = f.value
			continue
		}
		out[i] = a
	}
	return out
}

// onDone is called by backends when an attempt finishes (any goroutine).
func (rt *Runtime) onDone(inv *invocation, results []interface{}, err error, end time.Duration) {
	rt.mu.Lock()
	defer rt.mu.Unlock()

	// Release resources and record the execution interval on each granted
	// core of every spanned node (GPU lanes are implicit in the same rows).
	for _, al := range inv.allocs {
		if node := rt.nodeByID(al.node); node != nil {
			node.release(al.coreIDs, al.gpuIDs)
		}
		for _, c := range al.coreIDs {
			rt.rec.RecordInterval(trace.Interval{
				Node: al.node, Core: c, Start: inv.started, End: end,
				State: trace.StateRunning, TaskID: inv.id, Label: inv.def.Name,
			})
		}
	}
	primary := inv.primaryNode()
	primaryCore := 0
	if len(inv.allocs) > 0 {
		primaryCore = inv.allocs[0].coreIDs[0]
	}

	if err != nil {
		rt.rec.RecordEvent(trace.Event{Node: primary, Core: primaryCore, At: end,
			Type: trace.EventTaskFail, Value: int64(inv.id)})
		if inv.attempt < inv.def.MaxRetries {
			// Paper §3/§4: first retry on the same node, then elsewhere.
			if inv.attempt == 0 {
				inv.pinNode = primary
			} else {
				inv.pinNode = -1
				// Exclude the failing node only when another node could run
				// the task; on a single-node cluster the retry stays put.
				if rt.hasAlternative(inv, primary) {
					if inv.excludeNode == nil {
						inv.excludeNode = make(map[int]bool)
					}
					inv.excludeNode[primary] = true
				}
			}
			inv.attempt++
			inv.state = stateReady
			rt.retried++
			obsTasksRetried.Inc()
			rt.rec.RecordEvent(trace.Event{Node: primary, Core: primaryCore, At: end,
				Type: trace.EventTaskRetry, Value: int64(inv.attempt)})
			rt.ready = append(rt.ready, inv)
			rt.dispatch()
			rt.cond.Broadcast()
			return
		}
		rt.finishLocked(inv, nil, fmt.Errorf("runtime: task %d (%s) failed after %d attempts: %w",
			inv.id, inv.def.Name, inv.attempt+1, err), true)
		rt.dispatch()
		rt.cond.Broadcast()
		return
	}

	rt.rec.RecordEvent(trace.Event{Node: primary, Core: primaryCore, At: end,
		Type: trace.EventTaskEnd, Value: int64(inv.id)})
	rt.finishLocked(inv, results, nil, true)
	rt.dispatch()
	rt.cond.Broadcast()
}

// finishLocked resolves an invocation's futures and unblocks dependents.
// With cascade, a failure propagates ErrDependencyFailed to dependents.
func (rt *Runtime) finishLocked(inv *invocation, results []interface{}, err error, cascade bool) {
	if inv.state == stateDone || inv.state == stateFailed || inv.state == stateCanceled {
		return
	}
	if err != nil {
		inv.state = stateFailed
		inv.err = err
		rt.failed++
		if errors.Is(err, ErrCanceled) {
			obsTasksCanceled.Inc()
		} else {
			obsTasksFailed.Inc()
		}
	} else {
		inv.state = stateDone
		rt.completed++
		obsTasksCompleted.Inc()
	}
	rt.pending--

	for i, f := range inv.outs {
		f.resolved = true
		f.producedOn = inv.primaryNode()
		f.err = err
		if err == nil {
			switch {
			case f.index < 0:
				// InOut new version: carries the (mutated) original value.
				f.value = rt.inOutValue(inv, f)
			case results != nil && f.index < len(results):
				f.value = results[f.index]
			default:
				f.value = nil
			}
		}
		_ = i
	}

	for _, dep := range inv.dependents {
		delete(dep.deps, inv.id)
		if err != nil && cascade {
			rt.finishLocked(dep, nil, fmt.Errorf("runtime: dependency task %d failed: %w", inv.id, err), true)
			continue
		}
		if dep.state == stateBlocked && len(dep.deps) == 0 {
			dep.state = stateReady
			rt.ready = append(rt.ready, dep)
		}
	}
}

// inOutValue finds the argument value corresponding to an InOut output
// future (same data item, previous version).
func (rt *Runtime) inOutValue(inv *invocation, out *Future) interface{} {
	for _, a := range inv.args {
		if io, ok := a.(InOut); ok && io.Future.dataID == out.dataID {
			return io.Future.value
		}
	}
	return nil
}

func (rt *Runtime) nodeByID(id int) *nodeState {
	for _, n := range rt.nodes {
		if n.spec.ID == id {
			return n
		}
	}
	return nil
}

// WaitOn blocks until every future resolves, returning their values in
// order — the compss_wait_on synchronisation. The first failed future's
// error is returned (values of successful futures are still filled in).
// When graph recording is on, a sync node is added like Figure 3's red
// octagon.
func (rt *Runtime) WaitOn(futs ...*Future) ([]interface{}, error) {
	rt.mu.Lock()
	if rt.graph != nil && len(futs) > 0 {
		syncID := rt.graph.addSync()
		for _, f := range futs {
			if f.producer != nil {
				rt.graph.addEdge(f.producer.id, syncID, f.ID())
			}
		}
	}
	rt.mu.Unlock()

	rt.backend.drive(func() bool {
		for _, f := range futs {
			if !f.resolved {
				return false
			}
		}
		return true
	})

	rt.mu.Lock()
	defer rt.mu.Unlock()
	vals := make([]interface{}, len(futs))
	var firstErr error
	for i, f := range futs {
		if !f.resolved {
			return vals, fmt.Errorf("runtime: WaitOn returned with unresolved future %s (backend drained)", f.ID())
		}
		vals[i] = f.value
		if f.err != nil && firstErr == nil {
			firstErr = f.err
		}
	}
	return vals, firstErr
}

// WaitAny blocks until at least one of the futures resolves and returns
// the indexes (in input order) of every future resolved by then — the
// non-barrier synchronisation an asynchronous rung study drains on: one
// finished trial frees its slot and the study tops the runtime up without
// waiting for the rest of the round. An empty input returns nil
// immediately. Values and errors stay on the futures; pass a resolved
// future to WaitOn to read them.
func (rt *Runtime) WaitAny(futs ...*Future) []int {
	if len(futs) == 0 {
		return nil
	}
	rt.backend.drive(func() bool {
		for _, f := range futs {
			if f.resolved {
				return true
			}
		}
		return false
	})
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var idx []int
	for i, f := range futs {
		if f.resolved {
			idx = append(idx, i)
		}
	}
	return idx
}

// Barrier blocks until every submitted invocation has finished.
func (rt *Runtime) Barrier() {
	rt.backend.drive(func() bool { return rt.pending == 0 })
}

// SetTaskReportHandler installs (or clears, with nil) the observer of
// intermediate metric points streamed by running tasks via
// TaskContext.Report — the master side of per-epoch trial telemetry. The
// handler runs outside the runtime lock and may call CancelTask.
func (rt *Runtime) SetTaskReportHandler(h func(taskID, epoch int, value float64)) {
	rt.mu.Lock()
	rt.reportFn = h
	rt.mu.Unlock()
}

// emitTaskReport forwards one streamed metric point to the installed
// handler. Called by backends without rt.mu held.
func (rt *Runtime) emitTaskReport(taskID, epoch int, value float64) {
	rt.mu.Lock()
	h := rt.reportFn
	rt.mu.Unlock()
	if h != nil {
		h(taskID, epoch, value)
	}
}

// CanStreamReports reports whether this backend delivers TaskContext.Report
// points back to the master: Real streams in-process, Remote streams over
// the worker transport, Sim models durations and cannot stream.
func (rt *Runtime) CanStreamReports() bool { return rt.opts.Backend != Sim }

// CancelTask cancels one invocation by id. A not-yet-started invocation is
// dropped like CancelPending (its future resolves with ErrCanceled); a
// running one receives a cooperative cancel signal — locally by closing
// TaskContext.Canceled, remotely via a CancelTask protocol message — and is
// expected to finish early with a partial result. It reports whether a
// cancellation was delivered; finished tasks return false.
func (rt *Runtime) CancelTask(id int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if id < 1 || id > len(rt.invs) {
		return false
	}
	inv := rt.invs[id-1]
	switch inv.state {
	case stateReady, stateBlocked:
		for i, r := range rt.ready {
			if r == inv {
				rt.ready[i] = nil
			}
		}
		rt.compactReady()
		rt.finishLocked(inv, nil, ErrCanceled, false)
		inv.state = stateCanceled
		rt.canceled++
		rt.failed-- // finishLocked counted it as failed
		rt.dispatch()
		rt.cond.Broadcast()
		return true
	case stateRunning:
		return rt.backend.cancelRunning(inv)
	default:
		return false
	}
}

// ExtendTask raises a running invocation's epoch budget: the continuation
// half of rung-driven successive halving. The task's BudgetGate ceiling is
// lifted to budget — locally by touching the attempt's gate, remotely via
// an ExtendTask protocol message — so a task paused at its gate resumes
// training the same in-memory state rather than being re-submitted. It
// reports whether an extension was delivered; tasks that are not currently
// running (finished, canceled, or re-queued after a worker death) return
// false, and the caller is expected to fall back to re-issuing the grant
// when a fresh attempt streams its reports (restart fallback).
func (rt *Runtime) ExtendTask(id, budget int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if id < 1 || id > len(rt.invs) || budget <= 0 {
		return false
	}
	inv := rt.invs[id-1]
	if inv.state != stateRunning {
		return false
	}
	t0 := time.Now()
	ok := rt.backend.extendRunning(inv, budget)
	if ok {
		obsExtendLatency.ObserveSince(t0)
		obsExtendLastLatency.Set(time.Since(t0).Seconds())
	}
	return ok
}

// Slots reports how many tasks with the given constraint can execute
// simultaneously on the currently attached, healthy nodes — the capacity a
// rung scheduler consults: synchronous rungs fail fast below their bracket
// size, asynchronous rungs use it to pace admission. For multi-node
// constraints the count is per-node feasible: a k-node task needs k
// distinct healthy nodes that can each host its per-node share, so a
// single 8-core node reports zero 2-node slots (no such task can place),
// not a share of the global core pool.
func (rt *Runtime) Slots(c Constraint) int {
	c = c.Normalise()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	perNode := make([]int, 0, len(rt.nodes))
	total := 0
	for _, n := range rt.nodes {
		if n.down {
			continue
		}
		byCores := n.spec.Cores / c.Cores
		if c.GPUs > 0 {
			if byGPUs := n.spec.GPUs / c.GPUs; byGPUs < byCores {
				byCores = byGPUs
			}
		}
		if byCores > 0 {
			perNode = append(perNode, byCores)
			total += byCores
		}
	}
	if c.Nodes <= 1 {
		return total
	}
	if len(perNode) < c.Nodes {
		return 0 // fewer feasible nodes than one task spans
	}
	// t concurrent k-node tasks need t·k node-slots with each node
	// contributing at most min(itsSlots, t) — a task occupies a node at
	// most once. The feasible region is a prefix in t (the margin is
	// concave), so scan until it breaks.
	best := 0
	for t := 1; t*c.Nodes <= total; t++ {
		sum := 0
		for _, s := range perNode {
			if s < t {
				sum += s
			} else {
				sum += t
			}
		}
		if sum < t*c.Nodes {
			break
		}
		best = t
	}
	return best
}

// CancelPending cancels every invocation that has not started executing;
// their futures resolve with ErrCanceled (cascading to dependents). It
// returns the number of cancelled invocations. Running tasks are not
// interrupted — this is the "stop as soon as one task achieves a specified
// accuracy" operation from §6.1.
func (rt *Runtime) CancelPending() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, inv := range rt.invs {
		if inv.state == stateReady || inv.state == stateBlocked {
			rt.finishLocked(inv, nil, ErrCanceled, false)
			inv.state = stateCanceled
			rt.canceled++
			rt.failed-- // finishLocked counted it as failed
			n++
		}
	}
	rt.ready = rt.ready[:0]
	rt.cond.Broadcast()
	return n
}

// Shutdown waits for outstanding work and releases backend resources.
func (rt *Runtime) Shutdown() {
	rt.Barrier()
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
	rt.backend.close()
}

// Now returns the backend's current time (wall-clock since start, or
// virtual).
func (rt *Runtime) Now() time.Duration { return rt.backend.now() }

// Stats is a snapshot of runtime counters.
type Stats struct {
	Submitted int
	Started   int
	Completed int
	Failed    int
	Retried   int
	Canceled  int
	Pending   int
	Makespan  time.Duration
}

// Stats returns current counters; Makespan is the trace makespan when
// tracing is enabled, else the backend clock.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ms := rt.backend.now()
	if rt.rec.Enabled() {
		ms = rt.rec.Makespan()
	}
	return Stats{
		Submitted: len(rt.invs),
		Started:   rt.started,
		Completed: rt.completed,
		Failed:    rt.failed,
		Retried:   rt.retried,
		Canceled:  rt.canceled,
		Pending:   rt.pending,
		Makespan:  ms,
	}
}

// ExportDOT renders the recorded task graph (Options.Graph must be true).
func (rt *Runtime) ExportDOT(name string) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.graph == nil {
		return "", errors.New("runtime: graph recording disabled (set Options.Graph)")
	}
	return rt.graph.dot(name), nil
}

// graphBuilder accumulates the task graph.
type graphBuilder struct {
	nodes  []graphdot.Node
	edges  []graphdot.Edge
	nextID int
}

func newGraphBuilder() *graphBuilder { return &graphBuilder{} }

func (g *graphBuilder) addNode(id int, kind string) {
	g.nodes = append(g.nodes, graphdot.Node{ID: id, Kind: kind})
	if id >= g.nextID {
		g.nextID = id + 1
	}
}

// addSync creates a synchronisation node (compss_wait_on) and returns its
// id. Sync ids continue after task ids.
func (g *graphBuilder) addSync() int {
	g.nextID += 100000 // keep sync ids clear of task ids
	id := g.nextID
	g.nodes = append(g.nodes, graphdot.Node{ID: id, Kind: "sync"})
	return id
}

func (g *graphBuilder) addEdge(from, to int, label string) {
	g.edges = append(g.edges, graphdot.Edge{From: from, To: to, Label: label})
}

func (g *graphBuilder) dot(name string) string {
	gd := graphdot.New(name)
	for _, n := range g.nodes {
		gd.AddNode(n)
	}
	for _, e := range g.edges {
		gd.AddEdge(e)
	}
	return gd.DOT()
}

package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
)

// remoteBackend runs tasks on workers connected through comm transports,
// the distributed deployment mode: the master keeps the dependency graph
// and scheduler; workers execute registered task functions and return
// results. A worker whose transport drops is marked down and its running
// tasks are resubmitted elsewhere — the paper's second fault-tolerance
// mechanism ("if a computing unit fails ... PyCOMPSs restarts this task in
// another computing unit", §3).
type remoteBackend struct {
	rt    *Runtime
	start time.Time

	mu      sync.Mutex
	workers map[int]*remoteWorker
	running map[int]*invocation
	nextID  int

	monitorOnce sync.Once
	monitorStop chan struct{}
}

type remoteWorker struct {
	id int
	tr comm.Transport
	// lastSeen is the unix-nano time of the last message (heartbeat or
	// otherwise) from this worker, for liveness monitoring.
	lastSeen int64
}

func newRemoteBackend(rt *Runtime) *remoteBackend {
	return &remoteBackend{
		rt:          rt,
		start:       time.Now(),
		workers:     make(map[int]*remoteWorker),
		running:     make(map[int]*invocation),
		monitorStop: make(chan struct{}),
	}
}

// monitor kills workers whose last message is older than the configured
// heartbeat timeout — the liveness half of the paper's fault tolerance: a
// hung node, not just a dead connection, must not stall the study.
func (b *remoteBackend) monitor(timeout time.Duration) {
	tick := time.NewTicker(timeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-b.monitorStop:
			return
		case <-tick.C:
			now := time.Now().UnixNano()
			var stale []*remoteWorker
			b.mu.Lock()
			for _, w := range b.workers {
				if now-atomic.LoadInt64(&w.lastSeen) > int64(timeout) {
					stale = append(stale, w)
				}
			}
			b.mu.Unlock()
			for _, w := range stale {
				_ = w.tr.Close() // unblocks the read loop → workerDown
			}
		}
	}
}

func (b *remoteBackend) now() time.Duration { return time.Since(b.start) }

// AttachWorker performs the registration handshake on an established
// transport and adds the worker as a schedulable node. It returns the
// assigned node id.
func (rt *Runtime) AttachWorker(tr comm.Transport) (int, error) {
	b, ok := rt.backend.(*remoteBackend)
	if !ok {
		return 0, errors.New("runtime: AttachWorker requires the Remote backend")
	}
	msg, err := tr.Recv()
	if err != nil {
		return 0, fmt.Errorf("runtime: worker registration: %w", err)
	}
	if msg.Type != comm.MsgRegister {
		return 0, fmt.Errorf("runtime: expected Register, got %v", msg.Type)
	}
	if msg.Units < 1 {
		return 0, fmt.Errorf("runtime: worker registered with %d cores", msg.Units)
	}

	b.mu.Lock()
	id := b.nextID
	b.nextID++
	w := &remoteWorker{id: id, tr: tr, lastSeen: time.Now().UnixNano()}
	b.workers[id] = w
	b.mu.Unlock()
	if hb := rt.opts.HeartbeatTimeout; hb > 0 {
		b.monitorOnce.Do(func() { go b.monitor(hb) })
	}

	if err := tr.Send(&comm.Message{Type: comm.MsgRegisterAck, WorkerID: id}); err != nil {
		return 0, fmt.Errorf("runtime: worker ack: %w", err)
	}

	rt.mu.Lock()
	rt.nodes = append(rt.nodes, newNodeState(cluster.NodeSpec{
		ID: id, Name: fmt.Sprintf("worker-%02d", id),
		Cores: msg.Units, GPUs: msg.GPUs, CoreSpeed: 1, GPUSpeed: 1,
	}))
	rt.dispatch()
	rt.mu.Unlock()
	rt.cond.Broadcast()

	go b.readLoop(w)
	return id, nil
}

// ListenAndAttach accepts exactly n workers from the listener.
func (rt *Runtime) ListenAndAttach(ln *comm.Listener, n int) error {
	for i := 0; i < n; i++ {
		tr, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("runtime: accepting worker %d/%d: %w", i+1, n, err)
		}
		if _, err := rt.AttachWorker(tr); err != nil {
			return err
		}
	}
	return nil
}

func (b *remoteBackend) readLoop(w *remoteWorker) {
	for {
		msg, err := w.tr.Recv()
		if err != nil {
			b.workerDown(w)
			return
		}
		atomic.StoreInt64(&w.lastSeen, time.Now().UnixNano())
		switch msg.Type {
		case comm.MsgTaskDone:
			b.mu.Lock()
			inv := b.running[msg.TaskID]
			delete(b.running, msg.TaskID)
			b.mu.Unlock()
			if inv != nil {
				b.rt.onDone(inv, msg.Args, nil, b.now())
			}
		case comm.MsgTaskFailed:
			b.mu.Lock()
			inv := b.running[msg.TaskID]
			delete(b.running, msg.TaskID)
			b.mu.Unlock()
			if inv != nil {
				b.rt.onDone(inv, nil, errors.New(msg.Err), b.now())
			}
		case comm.MsgEpochReport:
			// Intermediate metric streamed by a running task: surface it to
			// the master's report handler (trial pruning, dashboards).
			b.rt.emitTaskReport(msg.TaskID, msg.Epoch, msg.Value)
		case comm.MsgHeartbeat:
			// Liveness only; nothing to update in this implementation.
		default:
			// Ignore unexpected traffic; a robust master does not die on a
			// confused worker.
		}
	}
}

// workerDown marks the node unavailable and requeues its running tasks on
// other nodes.
func (b *remoteBackend) workerDown(w *remoteWorker) {
	b.mu.Lock()
	delete(b.workers, w.id)
	var orphans []*invocation
	for id, inv := range b.running {
		if inv.primaryNode() == w.id {
			orphans = append(orphans, inv)
			delete(b.running, id)
		}
	}
	b.mu.Unlock()

	rt := b.rt
	rt.mu.Lock()
	if n := rt.nodeByID(w.id); n != nil {
		n.down = true
	}
	for _, inv := range orphans {
		for _, al := range inv.allocs {
			if n := rt.nodeByID(al.node); n != nil {
				n.release(al.coreIDs, al.gpuIDs)
			}
		}
		if inv.excludeNode == nil {
			inv.excludeNode = make(map[int]bool)
		}
		inv.excludeNode[w.id] = true
		inv.pinNode = -1
		inv.attempt++
		inv.state = stateReady
		rt.retried++
		obsTasksRetried.Inc()
		rt.ready = append(rt.ready, inv)
	}
	rt.dispatch()
	rt.mu.Unlock()
	rt.cond.Broadcast()
}

func (b *remoteBackend) launch(inv *invocation, args []interface{}) {
	nodeID := inv.primaryNode()
	b.mu.Lock()
	w := b.workers[nodeID]
	if w != nil {
		b.running[inv.id] = inv
	}
	b.mu.Unlock()
	if w == nil {
		go b.rt.onDone(inv, nil, fmt.Errorf("runtime: node %d has no worker", nodeID), b.now())
		return
	}
	msg := &comm.Message{
		Type: comm.MsgSubmitTask, TaskID: inv.id, TaskName: inv.def.Name,
		Args: args, Units: inv.def.Constraint.Cores, GPUs: inv.def.Constraint.GPUs,
	}
	// Send without holding rt.mu-independent locks for long; transports
	// serialise internally.
	go func() {
		if err := w.tr.Send(msg); err != nil {
			b.mu.Lock()
			delete(b.running, inv.id)
			b.mu.Unlock()
			b.rt.onDone(inv, nil, fmt.Errorf("runtime: submitting to worker %d: %w", w.id, err), b.now())
		}
	}()
}

// cancelRunning forwards a cooperative cancel to the worker executing the
// invocation (rt.mu held; the send happens off-lock). The worker closes the
// task's Canceled channel and the task returns early through the normal
// TaskDone path.
func (b *remoteBackend) cancelRunning(inv *invocation) bool {
	nodeID := inv.primaryNode()
	b.mu.Lock()
	w := b.workers[nodeID]
	b.mu.Unlock()
	if w == nil {
		return false
	}
	go func() {
		_ = w.tr.Send(&comm.Message{Type: comm.MsgCancelTask, TaskID: inv.id})
	}()
	return true
}

// extendRunning forwards a budget extension to the worker executing the
// invocation (rt.mu held; the send happens off-lock). The worker raises the
// task's BudgetGate so a trial paused at a rung boundary keeps training the
// same model.
func (b *remoteBackend) extendRunning(inv *invocation, budget int) bool {
	nodeID := inv.primaryNode()
	b.mu.Lock()
	w := b.workers[nodeID]
	b.mu.Unlock()
	if w == nil {
		return false
	}
	go func() {
		_ = w.tr.Send(&comm.Message{Type: comm.MsgExtendTask, TaskID: inv.id, Budget: budget})
	}()
	return true
}

func (b *remoteBackend) drive(pred func() bool) {
	b.rt.mu.Lock()
	for !pred() {
		b.rt.cond.Wait()
	}
	b.rt.mu.Unlock()
}

func (b *remoteBackend) close() {
	select {
	case <-b.monitorStop:
	default:
		close(b.monitorStop)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, w := range b.workers {
		_ = w.tr.Send(&comm.Message{Type: comm.MsgShutdown})
		_ = w.tr.Close()
	}
	b.workers = make(map[int]*remoteWorker)
}

// Worker executes tasks on behalf of a remote master. Run one per "node"
// (process or goroutine), register the same TaskDefs as the master, then
// Serve a transport connected to the master.
type Worker struct {
	cores     int
	gpus      int
	defs      map[string]TaskDef
	heartbeat time.Duration
}

// NewWorker creates a worker advertising the given capacity. Heartbeats are
// sent every second by default.
func NewWorker(cores, gpus int) *Worker {
	if cores < 1 {
		cores = 1
	}
	if gpus < 0 {
		gpus = 0
	}
	return &Worker{cores: cores, gpus: gpus, defs: make(map[string]TaskDef), heartbeat: time.Second}
}

// Register adds an executable task definition to the worker's registry.
func (w *Worker) Register(def TaskDef) error {
	def, err := def.normalise()
	if err != nil {
		return err
	}
	if def.Fn == nil {
		return fmt.Errorf("runtime: worker task %q needs Fn", def.Name)
	}
	w.defs[def.Name] = def
	return nil
}

// ConnectAndServe dials the master, registers, and serves until shutdown or
// transport failure.
func (w *Worker) ConnectAndServe(addr string) error {
	tr, err := comm.Dial(addr)
	if err != nil {
		return err
	}
	return w.Serve(tr)
}

// Serve performs the registration handshake on tr and processes task
// submissions until the master shuts the worker down or the transport
// closes. It returns nil on orderly shutdown.
func (w *Worker) Serve(tr comm.Transport) error {
	defer tr.Close()
	if err := tr.Send(&comm.Message{Type: comm.MsgRegister, Units: w.cores, GPUs: w.gpus}); err != nil {
		return fmt.Errorf("runtime: worker register: %w", err)
	}
	ack, err := tr.Recv()
	if err != nil {
		return fmt.Errorf("runtime: worker ack: %w", err)
	}
	if ack.Type != comm.MsgRegisterAck {
		return fmt.Errorf("runtime: expected RegisterAck, got %v", ack.Type)
	}
	workerID := ack.WorkerID

	// Liveness heartbeats.
	hbStop := make(chan struct{})
	defer close(hbStop)
	if w.heartbeat > 0 {
		go func() {
			tick := time.NewTicker(w.heartbeat)
			defer tick.Stop()
			seq := int64(0)
			for {
				select {
				case <-hbStop:
					return
				case <-tick.C:
					seq++
					if err := tr.Send(&comm.Message{Type: comm.MsgHeartbeat, WorkerID: workerID, Seq: seq}); err != nil {
						return
					}
				}
			}
		}()
	}

	// Running-task cancellation registry: the master may send CancelTask
	// for an in-flight submission; the matching task's Canceled channel is
	// closed so it can stop cooperatively at its next observation point.
	// The master sends submits and cancels from independent goroutines, so
	// a cancel may overtake its submit — preCanceled remembers those and
	// the late-arriving submit starts with its channel already closed.
	// gates holds each running task's epoch-budget gate for ExtendTask
	// continuation; preExtended remembers extensions that overtook their
	// submit the same way.
	var runMu sync.Mutex
	running := make(map[int]chan struct{})
	preCanceled := make(map[int]bool)
	gates := make(map[int]*BudgetGate)
	preExtended := make(map[int]int)

	var wg sync.WaitGroup
	defer wg.Wait()
	// Runs before wg.Wait (LIFO): when the serve loop exits — master
	// shutdown or transport failure — tasks paused at budget gates or
	// polling their cancel channel must unblock, or the worker would never
	// drain. The master re-queues their work elsewhere.
	defer func() {
		runMu.Lock()
		for _, g := range gates {
			g.Stop()
		}
		for id, ch := range running {
			close(ch)
			delete(running, id)
		}
		runMu.Unlock()
	}()
	for {
		msg, err := tr.Recv()
		if err != nil {
			if errors.Is(err, comm.ErrClosed) {
				return nil
			}
			return err
		}
		switch msg.Type {
		case comm.MsgShutdown:
			return nil
		case comm.MsgCancelTask:
			runMu.Lock()
			if ch, ok := running[msg.TaskID]; ok {
				close(ch)
				delete(running, msg.TaskID)
			} else {
				preCanceled[msg.TaskID] = true
			}
			if g, ok := gates[msg.TaskID]; ok {
				// A task paused at its budget gate must observe the cancel.
				g.Stop()
			}
			runMu.Unlock()
		case comm.MsgExtendTask:
			runMu.Lock()
			if g, ok := gates[msg.TaskID]; ok {
				g.Extend(msg.Budget)
			} else if msg.Budget > preExtended[msg.TaskID] {
				preExtended[msg.TaskID] = msg.Budget
			}
			runMu.Unlock()
		case comm.MsgSubmitTask:
			def, ok := w.defs[msg.TaskName]
			if !ok {
				_ = tr.Send(&comm.Message{Type: comm.MsgTaskFailed, TaskID: msg.TaskID,
					Err: fmt.Sprintf("worker: task %q not registered", msg.TaskName)})
				continue
			}
			cancel := make(chan struct{})
			gate := NewBudgetGate()
			runMu.Lock()
			if preCanceled[msg.TaskID] {
				delete(preCanceled, msg.TaskID)
				close(cancel)
				gate.Stop()
			} else {
				running[msg.TaskID] = cancel
			}
			if n, ok := preExtended[msg.TaskID]; ok {
				delete(preExtended, msg.TaskID)
				gate.Extend(n)
			}
			gates[msg.TaskID] = gate
			runMu.Unlock()
			wg.Add(1)
			go func(msg *comm.Message) {
				defer wg.Done()
				defer func() {
					runMu.Lock()
					delete(running, msg.TaskID)
					delete(gates, msg.TaskID)
					// An extend that raced this task's completion parked
					// itself in preExtended; the id is never submitted
					// again, so drop it rather than leak it.
					delete(preExtended, msg.TaskID)
					runMu.Unlock()
				}()
				ctx := &TaskContext{
					TaskID: msg.TaskID, Node: workerID,
					Cores: msg.Units, GPUs: msg.GPUs,
					CoreIDs: identityCores(msg.Units),
					Report: func(epoch int, value float64) {
						// Stream the point to the master; transports
						// serialise concurrent sends internally.
						_ = tr.Send(&comm.Message{Type: comm.MsgEpochReport,
							TaskID: msg.TaskID, WorkerID: workerID, Epoch: epoch, Value: value})
					},
					Canceled: cancel,
					Budget:   gate,
				}
				results, err := runSafely(def.Fn, ctx, msg.Args)
				if err != nil {
					_ = tr.Send(&comm.Message{Type: comm.MsgTaskFailed, TaskID: msg.TaskID, Err: err.Error()})
					return
				}
				_ = tr.Send(&comm.Message{Type: comm.MsgTaskDone, TaskID: msg.TaskID, Args: results})
			}(msg)
		}
	}
}

func identityCores(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

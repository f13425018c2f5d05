package runtime

import (
	"testing"
	"time"

	"repro/internal/comm"
)

// stalledWorker speaks just enough of the protocol to register and accept a
// task, then goes silent — simulating a hung node whose TCP connection is
// still up.
func stalledWorker(t *testing.T, tr comm.Transport) {
	t.Helper()
	if err := tr.Send(&comm.Message{Type: comm.MsgRegister, Units: 1}); err != nil {
		t.Errorf("stalled worker register: %v", err)
		return
	}
	if _, err := tr.Recv(); err != nil { // ack
		t.Errorf("stalled worker ack: %v", err)
		return
	}
	for {
		if _, err := tr.Recv(); err != nil {
			return // master killed us
		}
		// Swallow everything, respond to nothing, send no heartbeats.
	}
}

func TestHeartbeatTimeoutResubmits(t *testing.T) {
	rt, err := New(Options{
		Backend:          Remote,
		HeartbeatTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	def := TaskDef{
		Name: "job", Returns: 1, MaxRetries: 2,
		Fn: func(ctx *TaskContext, args []interface{}) ([]interface{}, error) {
			return []interface{}{ctx.Node}, nil
		},
	}
	rt.MustRegister(def)

	// Worker 0: the stalled one. It registers first so the scheduler's
	// first-fit places the task there.
	stalledMaster, stalledSide := comm.NewMemPair(16)
	go stalledWorker(t, stalledSide)
	if _, err := rt.AttachWorker(stalledMaster); err != nil {
		t.Fatal(err)
	}

	f, err := rt.Submit1("job")
	if err != nil {
		t.Fatal(err)
	}
	// Give the task time to be assigned to the stalled worker.
	time.Sleep(30 * time.Millisecond)

	// Worker 1: healthy, with fast heartbeats.
	healthyMaster, healthySide := comm.NewMemPair(16)
	w := NewWorker(1, 0)
	w.heartbeat = 25 * time.Millisecond
	if err := w.Register(def); err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := w.Serve(healthySide); err != nil {
			t.Errorf("healthy worker: %v", err)
		}
	}()
	if _, err := rt.AttachWorker(healthyMaster); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var vals []interface{}
	var werr error
	go func() {
		vals, werr = rt.WaitOn(f)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat monitor never resubmitted the task")
	}
	if werr != nil {
		t.Fatalf("task failed: %v", werr)
	}
	if vals[0].(int) != 1 {
		t.Fatalf("task ran on node %v, want healthy worker 1", vals[0])
	}
	if rt.Stats().Retried == 0 {
		t.Fatal("expected a resubmission")
	}
	rt.Shutdown()
}

func TestHealthyWorkerSurvivesMonitor(t *testing.T) {
	// With heartbeats faster than the timeout, a slow task must NOT be
	// treated as a dead worker.
	rt, err := New(Options{
		Backend:          Remote,
		HeartbeatTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	def := TaskDef{
		Name: "slow", Returns: 1,
		Fn: func(ctx *TaskContext, args []interface{}) ([]interface{}, error) {
			time.Sleep(300 * time.Millisecond) // 3× the timeout
			return []interface{}{"ok"}, nil
		},
	}
	rt.MustRegister(def)

	master, side := comm.NewMemPair(16)
	w := NewWorker(1, 0)
	w.heartbeat = 20 * time.Millisecond
	if err := w.Register(def); err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := w.Serve(side); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	if _, err := rt.AttachWorker(master); err != nil {
		t.Fatal(err)
	}

	f, _ := rt.Submit1("slow")
	vals, err := rt.WaitOn(f)
	if err != nil {
		t.Fatalf("slow-but-alive worker was killed: %v", err)
	}
	if vals[0].(string) != "ok" {
		t.Fatalf("result = %v", vals[0])
	}
	if rt.Stats().Retried != 0 {
		t.Fatal("healthy worker should not trigger resubmission")
	}
	rt.Shutdown()
}

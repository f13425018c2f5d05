package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/datasets"
	"repro/internal/hpo"
	"repro/internal/nn"
	"repro/internal/replay"
	rt "repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tensor"
)

// probeBudget is the time one layer probe may measure for; a dozen probes
// fit in a few seconds of a traced run. The smoke test shortens it.
var probeBudget = 250 * time.Millisecond

// timeOp measures fn's per-call cost: it sizes a batch from one warm-up
// call, runs five batches inside budget and returns the median batch's
// time per call.
func timeOp(budget time.Duration, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	if one <= 0 {
		one = time.Nanosecond
	}
	const batches = 5
	n := int(budget / batches / one)
	if n < 1 {
		n = 1
	}
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(per))
}

// probes calls into each layer's public functions at the workload's own
// sizes and returns per-layer metrics by name. tr records one span per
// probe when tracing is on; scratch is a directory for probe journals.
func runProbes(w *workload, nproc int, scratch string, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	steps := []struct {
		name string
		fn   func(map[string]float64) error
	}{
		{"probe.tensor", func(m map[string]float64) error { probeTensor(w.shape, nproc, m); return nil }},
		{"probe.nn", func(m map[string]float64) error { return probeNN(w.shape, m) }},
		{"probe.datasets", func(m map[string]float64) error { return probeDatasets(w.shape, m) }},
		{"probe.runtime", func(m map[string]float64) error { return probeRuntime(nproc, m) }},
		{"probe.comm", probeComm},
		{"probe.store", func(m map[string]float64) error { return probeStore(scratch, nproc, m) }},
		{"probe.hpo", func(m map[string]float64) error { return probeReportPath(scratch, nproc, m) }},
		{"probe.admission", func(m map[string]float64) error { probeAdmission(m); return nil }},
	}
	for _, s := range steps {
		sp := tr.begin(s.name, "", 0)
		err := s.fn(out)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return out, nil
}

// gemmEpoch is the sequence of matrix products one training epoch of the
// workload's MLP performs (784 → hidden → 10): per batch the two forward
// products, dW and dX of the output layer and dW of the first layer (its
// dX is skipped, as Sequential.Backward does), then the validation
// forward pass. It returns the epoch's floating-point operation count.
type gemmEpoch struct {
	calls []func(units int)
	flops float64
}

func newGemmEpoch(sh modelShape) *gemmEpoch {
	const in, classes = 28 * 28, 10
	r := tensor.NewRNG(1)
	g := &gemmEpoch{}
	w1, w2 := tensor.Randn(r, in, sh.hidden), tensor.Randn(r, sh.hidden, classes)
	dw1, dw2 := tensor.New(in, sh.hidden), tensor.New(sh.hidden, classes)
	add := func(bs int, train bool) {
		x, h, logits := tensor.Randn(r, bs, in), tensor.Randn(r, bs, sh.hidden), tensor.Randn(r, bs, classes)
		dh := tensor.New(bs, sh.hidden)
		g.calls = append(g.calls,
			func(u int) { tensor.MatMulInto(h, x, w1, u) },
			func(u int) { tensor.MatMulInto(logits, h, w2, u) })
		g.flops += 2 * float64(bs) * float64(sh.hidden) * (in + classes)
		if train {
			g.calls = append(g.calls,
				func(u int) { tensor.MatMulTransAInto(dw2, h, logits, u) },
				func(u int) { tensor.MatMulTransBInto(dh, logits, w2, u) },
				func(u int) { tensor.MatMulTransAInto(dw1, x, dh, u) })
			g.flops += 2 * float64(bs) * float64(sh.hidden) * (in + 2*classes)
		}
	}
	train := sh.samples * 8 / 10
	for n := train; n > 0; n -= sh.batch {
		add(min(n, sh.batch), true)
	}
	add(sh.samples-train, false)
	return g
}

func (g *gemmEpoch) run(units int) {
	for _, c := range g.calls {
		c(units)
	}
}

func probeTensor(sh modelShape, nproc int, m map[string]float64) {
	g := newGemmEpoch(sh)
	u1 := timeOp(probeBudget, func() { g.run(1) })
	uN := timeOp(probeBudget, func() { g.run(nproc) })
	m["tensor.gemm_gflops_u1"] = g.flops / float64(u1)
	m["tensor.gemm_gflops_uN"] = g.flops / float64(uN)
	m["tensor.gemm_scaling_eff"] = float64(u1) / float64(uN) / float64(nproc)
	m["tensor.gemm_epoch_ms"] = float64(u1) / 1e6
}

func probeNN(sh modelShape, m map[string]float64) error {
	ds, err := datasets.ByName("mnist", sh.samples, 1)
	if err != nil {
		return err
	}
	obj := &hpo.MLObjective{Dataset: ds, Hidden: []int{sh.hidden}}
	cfg := hpo.Config{"optimizer": "Adam", "num_epochs": sh.epochs, "batch_size": sh.batch, "learning_rate": 0.01}
	var runErr error
	trial := func() {
		res, err := obj.Run(hpo.ObjectiveContext{Config: cfg, Parallelism: 1, Seed: 1})
		if err != nil {
			runErr = err
		} else if res.Epochs != sh.epochs {
			runErr = fmt.Errorf("trained %d epochs, want %d", res.Epochs, sh.epochs)
		}
	}
	per := timeOp(2*probeBudget, trial)
	// Allocations are counted on one more trial outside the timing:
	// ReadMemStats stops the world, which a 0.5 ms toy trial would feel.
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	trial()
	goruntime.ReadMemStats(&ms1)
	mallocs := ms1.Mallocs - ms0.Mallocs
	if runErr != nil {
		return runErr
	}
	m["nn.epoch_ms"] = float64(per) / 1e6 / float64(sh.epochs)
	m["nn.epoch_allocs"] = float64(mallocs) / float64(sh.epochs)

	// Where a training step's time goes: the same model and batches driven
	// through the public step functions with a clock around each.
	r := tensor.NewRNG(1)
	model := nn.NewMLP(r, ds.Features(), []int{sh.hidden}, ds.Classes)
	opt, err := nn.NewOptimizer("Adam", 0.01)
	if err != nil {
		return err
	}
	bs := min(sh.batch, sh.samples*8/10)
	x := tensor.Randn(r, bs, ds.Features())
	labels := make([]int, bs)
	for i := range labels {
		labels[i] = i % ds.Classes
	}
	var fwd, bwd, step time.Duration
	loss := nn.SoftmaxCrossEntropy{}
	deadline := time.Now().Add(probeBudget)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		logits := model.Forward(x, true)
		t1 := time.Now()
		_, grad := loss.Loss(logits, labels)
		model.Backward(grad)
		t2 := time.Now()
		opt.Step(model.Params(), model.Grads())
		fwd, bwd, step = fwd+t1.Sub(t0), bwd+t2.Sub(t1), step+time.Since(t2)
	}
	total := float64(fwd + bwd + step)
	m["nn.fwd_share"], m["nn.bwd_share"], m["nn.opt_share"] = float64(fwd)/total, float64(bwd)/total, float64(step)/total
	return nil
}

func probeDatasets(sh modelShape, m map[string]float64) error {
	var err error
	seed := uint64(0)
	per := timeOp(probeBudget, func() {
		seed++
		_, err = datasets.ByName("mnist", sh.samples, seed)
	})
	m["datasets.build_ms"] = float64(per) / 1e6
	return err
}

func probeRuntime(nproc int, m map[string]float64) error {
	noop := rt.TaskDef{Name: "noop", Fn: func(*rt.TaskContext, []interface{}) ([]interface{}, error) { return nil, nil }}
	var err error
	per := timeOp(probeBudget, func() {
		r, e := rt.New(rt.Options{Cluster: cluster.Local(nproc), Backend: rt.Real})
		if e != nil {
			err = e
			return
		}
		r.Shutdown()
	})
	if err != nil {
		return err
	}
	m["runtime.new_shutdown_ms"] = float64(per) / 1e6

	r, err := rt.New(rt.Options{Cluster: cluster.Local(nproc), Backend: rt.Real})
	if err != nil {
		return err
	}
	defer r.Shutdown()
	if err := r.Register(noop); err != nil {
		return err
	}
	per = timeOp(probeBudget, func() {
		futs, e := r.Submit("noop")
		if e == nil {
			_, e = r.WaitOn(futs...)
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	m["runtime.dispatch_us"] = float64(per) / 1e3
	const burst = 2000
	t0 := time.Now()
	for i := 0; i < burst; i++ {
		if _, err := r.Submit("noop"); err != nil {
			return err
		}
	}
	r.Barrier()
	m["runtime.noop_tasks_per_s"] = burst / time.Since(t0).Seconds()
	return nil
}

// countingConn counts bytes written, to size an epoch report on the wire.
type countingConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// probeComm times one epoch report and its grant over loopback gob/TCP:
// the worker sends MsgEpochReport, the master answers MsgExtendTask — the
// per-epoch exchange of the remote backend.
func probeComm(m map[string]float64) error {
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan comm.Transport, 1)
	acceptErr := make(chan error, 1)
	go func() {
		tr, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- tr
	}()
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		return err
	}
	cc := &countingConn{Conn: conn}
	worker := comm.NewConnTransport(cc)
	defer worker.Close()
	var master comm.Transport
	select {
	case master = <-accepted:
	case err := <-acceptErr:
		return err
	}
	defer master.Close()
	echoDone := make(chan error, 1)
	go func() {
		for {
			msg, err := master.Recv()
			if err != nil {
				echoDone <- nil // the worker closed the connection: done
				return
			}
			if err := master.Send(&comm.Message{Type: comm.MsgExtendTask, TaskID: msg.TaskID, Budget: msg.Epoch + 2}); err != nil {
				echoDone <- err
				return
			}
		}
	}()
	epoch := 0
	var opErr error
	trip := func() {
		epoch++
		if err := worker.Send(&comm.Message{Type: comm.MsgEpochReport, WorkerID: 1, TaskID: 7, Epoch: epoch, Value: 0.5}); err != nil {
			opErr = err
			return
		}
		if _, err := worker.Recv(); err != nil {
			opErr = err
		}
	}
	trip() // the first message of a gob stream also carries the type description
	w0, e0 := cc.written.Load(), epoch
	per := timeOp(probeBudget, trip)
	if opErr != nil {
		return opErr
	}
	m["comm.roundtrip_us"] = float64(per) / 1e3
	m["comm.report_bytes"] = float64(cc.written.Load()-w0) / float64(epoch-e0)
	worker.Close()
	return <-echoDone
}

func probeStore(scratch string, nproc int, m map[string]float64) error {
	dir := filepath.Join(scratch, "probe-store")
	defer os.RemoveAll(dir)
	open := func(name string, noSync bool, studies int) (*store.Journal, error) {
		j, err := store.OpenJournal(filepath.Join(dir, name), store.JournalOptions{NoSync: noSync})
		if err != nil {
			return nil, err
		}
		for i := 0; i < studies; i++ {
			if err := j.CreateStudy(store.StudyMeta{ID: fmt.Sprintf("s%d", i)}); err != nil {
				j.Close()
				return nil, err
			}
		}
		return j, nil
	}
	var errMu sync.Mutex
	var opErr error
	keep := func(err error) {
		if err != nil {
			errMu.Lock()
			opErr = err
			errMu.Unlock()
		}
	}

	// The per-epoch append (buffered, no fsync of its own) on a NoSync
	// journal: the legacy benchjson figure.
	j, err := open("nosync", true, 1)
	if err != nil {
		return err
	}
	e := 0
	per := timeOp(probeBudget, func() { e++; keep(j.AppendMetric("s0", 0, e, 0.5)) })
	keep(j.Close())
	m["store.append_us_nosync"] = float64(per) / 1e3

	// Durable appends (promote records: flush + fsync + group commit), one
	// writer.
	j, err = open("sync1", false, 1)
	if err != nil {
		return err
	}
	per = timeOp(probeBudget, func() { e++; keep(j.AppendPromote("s0", 0, e, e+1, "probe")) })
	keep(j.Close())
	m["store.append_us_sync_w1"] = float64(per) / 1e3

	// The same with nproc concurrent studies sharing the commit lock: the
	// latency each writer sees per append.
	j, err = open("syncN", false, nproc)
	if err != nil {
		return err
	}
	const each = 200
	var wg sync.WaitGroup
	cpu0, t0 := selfCPUSeconds(), time.Now()
	for s := 0; s < nproc; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("s%d", s)
			for i := 0; i < each; i++ {
				if err := j.AppendPromote(id, 0, i, i+1, "probe"); err != nil {
					keep(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	m["store.append_us_sync_wN"] = float64(time.Since(t0)) / each / 1e3
	// What a durable append costs in CPU rather than in waiting: the
	// breakdown charges cores, and a writer blocked on the disk holds none.
	m["store.append_cpu_us_sync"] = (selfCPUSeconds() - cpu0) * 1e6 / float64(each*nproc)
	keep(j.Close())
	return opErr
}

// probeReportPath drives hpo.Study with a zero-cost objective, so the time
// per reported epoch is the central handler, the pruner decision and (in
// the second run) the journal recorder, with no training in it.
func probeReportPath(scratch string, nproc int, m map[string]float64) error {
	const trials, epochs = 8, 250
	space, err := hpo.ParseSpaceJSON([]byte(`{"k":[0,1,2,3,4,5,6,7],"num_epochs":[250]}`))
	if err != nil {
		return err
	}
	obj := &hpo.FuncObjective{ObjName: "null", Fn: func(ctx hpo.ObjectiveContext) (hpo.TrialMetrics, error) {
		for e := 0; e < epochs; e++ {
			ctx.Report(e, float64(e)/epochs)
		}
		return hpo.TrialMetrics{FinalAcc: 1, BestAcc: 1, Epochs: epochs}, nil
	}}
	run := func(rec store.Recorder) (time.Duration, error) {
		r, err := rt.New(rt.Options{Cluster: cluster.Local(nproc), Backend: rt.Real})
		if err != nil {
			return 0, err
		}
		defer r.Shutdown()
		pruner, err := hpo.NewPruner("median", 0, 0)
		if err != nil {
			return 0, err
		}
		st, err := hpo.NewStudy(hpo.StudyOptions{Sampler: hpo.NewGridSearch(space), Objective: obj,
			Runtime: r, Pruner: pruner, Seed: 1, Recorder: rec})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := st.Run()
		if err != nil {
			return 0, err
		}
		if len(res.Trials) != trials {
			return 0, fmt.Errorf("null study ran %d trials, want %d", len(res.Trials), trials)
		}
		return time.Since(t0), nil
	}
	bare, err := run(nil)
	if err != nil {
		return err
	}
	dir := filepath.Join(scratch, "probe-hpo")
	defer os.RemoveAll(dir)
	j, err := store.OpenJournal(dir, store.JournalOptions{})
	if err != nil {
		return err
	}
	defer j.Close()
	if err := j.CreateStudy(store.StudyMeta{ID: "null"}); err != nil {
		return err
	}
	journaled, err := run(store.WithoutMemo(j.Recorder("null", "probe")))
	if err != nil {
		return err
	}
	m["hpo.report_path_us"] = float64(bare) / 1e3 / (trials * epochs)
	m["hpo.report_path_journal_us"] = float64(journaled) / 1e3 / (trials * epochs)
	return nil
}

// probeAdmission times an uncontended Reserve → Await → Release and checks
// weighted fair share: four tenants of weight 1/1/2/4 queue for one slot,
// and over the first 64 grants each tenant's share is compared with its
// weight's share; the largest absolute gap is the error.
func probeAdmission(m map[string]float64) {
	q := hpo.NewAdmissionQueue(1)
	n := 0
	per := timeOp(probeBudget/2, func() {
		n++
		id := fmt.Sprintf("p%d", n)
		if q.Reserve("", id) == nil && q.Await(id) == nil {
			q.Release(id)
		}
	})
	m["hpo.admission_us"] = float64(per) / 1e3

	weights := map[string]float64{"a": 1, "b": 1, "c": 2, "d": 4}
	q = hpo.NewAdmissionQueue(1)
	q.SetLimits(func(t string) hpo.TenantLimits { return hpo.TenantLimits{Weight: weights[t]} })
	const perTenant, window = 64, 64
	_ = q.Reserve("hold", "hold") // occupies the slot while the tenants queue up
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	tenants := []string{"a", "b", "c", "d"}
	for _, t := range tenants {
		for i := 0; i < perTenant; i++ {
			id := fmt.Sprintf("%s%d", t, i)
			if q.Reserve(t, id) != nil {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if q.Await(id) != nil {
					return
				}
				mu.Lock()
				order = append(order, t)
				mu.Unlock()
				q.Release(id)
			}()
		}
	}
	if q.Await("hold") == nil {
		q.Release("hold")
	}
	wg.Wait()
	if len(order) > window {
		order = order[:window]
	}
	got := map[string]float64{}
	for _, t := range order {
		got[t]++
	}
	worst := 0.0
	for _, t := range tenants {
		worst = math.Max(worst, math.Abs(got[t]/float64(len(order))-weights[t]/8))
	}
	m["hpo.fair_share_err"] = worst
}

// probeJournal measures the read side on the journal the pass itself
// wrote, after the child released it: boot replay (OpenJournal), lock-free
// snapshot reads and replay verification per record, over the sampled
// studies.
func probeJournal(dir string, ids []string, m map[string]float64) error {
	var opens []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		j, err := store.OpenJournal(dir, store.JournalOptions{})
		if err != nil {
			return fmt.Errorf("reopening the journal: %w", err)
		}
		opens = append(opens, float64(time.Since(t0))/1e6)
		if err := j.Close(); err != nil {
			return err
		}
	}
	m["store.boot_replay_ms"] = median(opens)
	sort.Strings(ids)
	var reads []float64
	var verifyNS, records float64
	for _, id := range ids {
		t0 := time.Now()
		meta, recs, err := store.SnapshotStudyRecords(dir, id)
		if err != nil {
			return fmt.Errorf("snapshot of %s: %w", id, err)
		}
		reads = append(reads, float64(time.Since(t0))/1e6)
		spec, err := server.ParseSpec(meta.Spec)
		if err != nil {
			return fmt.Errorf("spec of %s: %w", id, err)
		}
		params, err := spec.ReplayParams("", "", "")
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := replay.Verify(id, recs, params); err != nil {
			return fmt.Errorf("replay of %s: %w", id, err)
		}
		verifyNS += float64(time.Since(t0))
		records += float64(len(recs))
	}
	m["store.snapshot_read_ms"] = median(reads)
	if records > 0 {
		m["replay.verify_us_per_record"] = verifyNS / records / 1e3
	}
	return nil
}

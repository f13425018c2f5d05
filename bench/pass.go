package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// passConfig is one run of one workload against a fresh child hpod.
type passConfig struct {
	w       *workload
	seed    uint64
	seconds int
	// scale multiplies the study count (1 for a measured pass, 0.1 for the
	// -short smoke test).
	scale float64
	// traced records spans and writes out/trace-<workload>.json.
	traced bool
	// setupReps is how many throwaway boots feed setup_s.
	setupReps int
	outDir    string
	hpodBin   string
	nproc     int
}

// readSamples is how many timed samples each read-phase operation aims
// for; small populations are read in several rounds to reach it.
const readSamples = 256

// journalSample bounds how many studies a closed-loop pass joins against
// the journal afterwards (the open loop joins all of its tiny studies).
const journalSample = 48

// seqTime is when the client received the SSE event with that sequence
// number.
type seqTime struct {
	seq uint64
	at  time.Time
}

// studyRun is everything the generator observed about one submission.
type studyRun struct {
	plan   planned
	id     string
	token  string
	due    time.Time // open loop: scheduled send time
	sent   time.Time
	acked  time.Time // create (+start) answered
	first  time.Time // first metric event received (closed loop)
	done   time.Time // terminal state observed by the client (closed loop)
	epochs int       // metric events received
	err    error
	// recv holds per-event receive times on journal-sampled studies.
	recv    []seqTime
	sampled bool
	span    int
	rows    []timelineRow // traced pass: GET /timeline rows
}

// passResult is the raw outcome of a pass; metrics.go turns it into the
// named end-to-end and per-layer values.
type passResult struct {
	w          *workload
	cfg        passConfig
	flags      []string
	journalDir string

	setupS   []float64
	buildS   float64
	wall     float64 // measured window, seconds
	studies  []*studyRun
	finished int // studies terminal inside the measured window
	// counters is /metrics after − before over the measured window; gauges
	// hold their value at the end of it.
	counters scrape
	gauges   scrape
	cpuS     float64 // child CPU over the measured window
	hwmMB    float64
	selfCPU  float64 // generator CPU over the measured window

	studyMS, firstEpochMS, admitMS, sseLagMS, lateMS dist
	recoveryS                                        float64
	catchupRate                                      dist      // events per second, one sample per catch-up stream
	busyCores                                        []float64 // hpo_runtime_busy_cores, one sample a second
	queueDepthMax                                    float64
	memoTrials, totalTrials                          int
	interrupted                                      int
	deadlineHit                                      atomic.Bool

	probes     map[string]float64
	cl         *client
	lat        latencies
	ops        opCounts
	violations []string
	vmu        sync.Mutex
	tr         *tracer
}

func (p *passResult) violate(format string, args ...interface{}) {
	p.vmu.Lock()
	if len(p.violations) < 50 {
		p.violations = append(p.violations, fmt.Sprintf(format, args...))
	}
	p.vmu.Unlock()
	p.ops.failed.Add(1)
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runPass boots a child, drives the workload, checks the outputs and
// tears everything down. An error means the pass could not be carried
// out at all; violated checks land in passResult.violations.
func runPass(ctx context.Context, cfg passConfig) (*passResult, error) {
	w := cfg.w
	p := &passResult{w: w, cfg: cfg}
	if cfg.traced {
		p.tr = newTracer()
	}
	runDir, err := filepath.Abs(filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	trackDir(runDir)
	defer removeDir(runDir)
	p.journalDir = filepath.Join(runDir, "journal")
	logPath := filepath.Join(cfg.outDir, "hpod-"+w.name+".log")
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		return nil, err
	}

	flags := append(w.flags(cfg.nproc), "-compact-interval", "0")
	if len(w.tenants) > 0 {
		raw, err := json.Marshal(map[string]interface{}{"tenants": w.tenants})
		if err != nil {
			return nil, err
		}
		tf := filepath.Join(runDir, "tenants.json")
		if err := os.WriteFile(tf, raw, 0o600); err != nil {
			return nil, err
		}
		flags = append(flags, "-tenants", tf)
	}
	p.flags = flags

	// Set-up: boot on an empty journal several times and keep every
	// sample; setup_s is their median.
	for i := 0; i < cfg.setupReps; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("setup-%d", i))
		c, err := startChild(ctx, cfg.hpodBin, append([]string{"-journal", dir}, flags...), logPath)
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, c.boot.Seconds())
		c.kill()
		os.RemoveAll(dir)
	}

	runFlags := append([]string{"-journal", p.journalDir}, flags...)
	ch, err := startChild(ctx, cfg.hpodBin, runFlags, logPath)
	if err != nil {
		return nil, err
	}
	defer func() { ch.stop() }()
	if cfg.setupReps == 0 {
		p.setupS = []float64{ch.boot.Seconds()}
	}
	p.cl = newClient(ch.addr, cfg.nproc+2, &p.ops, &p.lat, p.tr)
	defer func() { p.cl.close() }()

	// A multiple of the client count, so no closed-loop client idles
	// through a last odd study.
	count := int(math.Ceil(w.studiesPerSecond*float64(cfg.seconds)*cfg.scale/float64(cfg.nproc))) * cfg.nproc
	if count < cfg.nproc {
		count = cfg.nproc
	}
	plans, err := w.plan(cfg.seed, count)
	if err != nil {
		return nil, err
	}
	p.studies = make([]*studyRun, count)
	stride := count/journalSample + 1
	for i := range p.studies {
		s := &studyRun{plan: plans[i], sampled: w.openLoop || i%stride == 0}
		if len(w.tenants) > 0 {
			s.token = w.tenants[plans[i].tenant].Token
		}
		p.studies[i] = s
	}

	before, err := p.cl.scrape(ctx)
	if err != nil {
		return nil, err
	}
	use0, err := ch.usage()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()

	// An operator's scraper beside the load: one GET /metrics a second,
	// which also samples the admission queue depth and the busy-core gauge.
	stopScraper := make(chan struct{})
	var scraperDone sync.WaitGroup
	scraperDone.Add(1)
	go func() {
		defer scraperDone.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopScraper:
				return
			case <-tick.C:
				if s, err := p.cl.scrape(ctx); err == nil {
					if d := s.sum("hpo_admission_queue_depth"); d > p.queueDepthMax {
						p.queueDepthMax = d
					}
					p.busyCores = append(p.busyCores, s.sum("hpo_runtime_busy_cores"))
				}
			}
		}
	}()

	// The guard stops submission when the pass runs far past --seconds, so
	// a slow machine or a wedged daemon costs a bounded time.
	t0 := time.Now()
	guard := t0.Add(time.Duration(1.5*float64(cfg.seconds)*cfg.scale*float64(time.Second)) + 2*time.Second)
	root := p.tr.begin("pass."+w.name, "", 0)
	var t1 time.Time
	if w.openLoop {
		t1 = p.openLoop(ctx, t0, guard, root)
	} else {
		t1 = p.closedLoop(ctx, t0, guard, root)
	}
	p.tr.end(root)
	close(stopScraper)
	scraperDone.Wait()
	p.wall = t1.Sub(t0).Seconds()
	p.selfCPU = selfCPUSeconds() - self0

	after, err := p.cl.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape after the measured window: %w", err)
	}
	p.counters, p.gauges = after.delta(before), after
	use1, err := ch.usage()
	if err != nil {
		return nil, err
	}
	p.cpuS, p.hwmMB = use1.cpuSeconds-use0.cpuSeconds, use1.hwmMB

	var killedAt, healthyAt time.Time
	if w.restart {
		killedAt = time.Now()
		ch.kill()
		sp := p.tr.begin("recovery", "", 0)
		p.cl.close()
		ch, err = startChild(ctx, cfg.hpodBin, runFlags, logPath)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		healthyAt = time.Now()
		p.tr.end(sp)
		p.cl = newClient(ch.addr, cfg.nproc+2, &p.ops, &p.lat, p.tr)
		p.awaitTerminal(ctx)
	}

	p.readPhase(ctx)
	if u, err := ch.usage(); err == nil && u.hwmMB > p.hwmMB {
		p.hwmMB = u.hwmMB
	}
	if s, err := p.cl.scrape(ctx); err == nil {
		p.gauges = s
	}
	ch.stop()
	p.joinJournal(killedAt, healthyAt)
	if cfg.traced {
		// The layer probes run after the child has stopped, so they neither
		// disturb the measured window nor compete with the daemon.
		if p.probes, err = runProbes(w, cfg.nproc, runDir, p.tr); err != nil {
			return nil, err
		}
		var ids []string
		for _, s := range p.studies {
			if s.sampled && s.id != "" && s.err == nil && len(ids) < journalSample {
				ids = append(ids, s.id)
			}
		}
		sp := p.tr.begin("probe.journal", "", 0)
		err := probeJournal(p.journalDir, ids, p.probes)
		p.tr.end(sp)
		if err != nil {
			p.violate("%v", err)
		}
		if err := p.tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// closedLoop runs nproc clients; each creates, starts and tails one study
// at a time. It returns when the last study is terminal.
func (p *passResult) closedLoop(ctx context.Context, t0, guard time.Time, root int) time.Time {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < p.cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.studies) || ctx.Err() != nil {
					return
				}
				if time.Now().After(guard) {
					p.deadlineHit.Store(true)
					return
				}
				p.runStudy(ctx, p.studies[i], root)
			}
		}()
	}
	wg.Wait()
	for _, s := range p.studies {
		if s.err == nil && !s.done.IsZero() {
			p.finished++
		}
	}
	return time.Now()
}

// runStudy is one closed-loop study: create, start, tail SSE to the end,
// read the final state.
func (p *passResult) runStudy(ctx context.Context, s *studyRun, root int) {
	p.ops.attempted.Add(1)
	s.span = p.tr.begin("study", "", root)
	defer p.tr.end(s.span)
	fail := func(err error) {
		s.err = err
		p.violate("study %q: %v", s.id, err)
	}
	s.sent = time.Now()
	v, err := p.cl.create(ctx, s.token, s.plan.spec, s.span)
	if err != nil {
		fail(err)
		return
	}
	s.id = v.ID
	if err := p.cl.start(ctx, s.token, s.id, s.span); err != nil {
		fail(err)
		return
	}
	s.acked = time.Now()
	err = p.cl.events(ctx, s.token, s.id, 0, s.span, func(ev sseEvent) error {
		if ev.Type == "metric" {
			now := time.Now()
			if s.epochs == 0 {
				s.first = now
			}
			s.epochs++
			if s.sampled {
				s.recv = append(s.recv, seqTime{ev.ID, now})
			}
		}
		return nil
	})
	if err != nil {
		fail(err)
		return
	}
	s.done = time.Now()
	// The client's last step is reading the result; the state and trial
	// count are checked in the read phase, from the listing.
	if _, err := p.cl.get(ctx, s.token, s.id, s.span); err != nil {
		fail(err)
		return
	}
	p.studyMS.add(float64(s.done.Sub(s.sent)) / 1e6)
	if !s.first.IsZero() {
		p.firstEpochMS.add(float64(s.first.Sub(s.acked)) / 1e6)
	}
}

// openLoop posts every planned study at its due time from one submitter
// goroutine, while one poller lists studies beside the writes. It returns
// once the last submission is acknowledged: the caller kills the child
// right then, with the newest studies still in flight.
func (p *passResult) openLoop(ctx context.Context, t0, guard time.Time, root int) time.Time {
	stopPoller := make(chan struct{})
	var pollerDone sync.WaitGroup
	pollerDone.Add(1)
	go func() {
		defer pollerDone.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		token := p.w.tenants[len(p.w.tenants)-1].Token
		for {
			select {
			case <-stopPoller:
				return
			case <-tick.C:
				_, _ = p.cl.list(ctx, token) // failures are counted by the client
			}
		}
	}()
	due := make([]time.Duration, len(p.studies))
	for i, s := range p.studies {
		due[i] = time.Duration(s.plan.due * float64(time.Second))
	}
	late := pace(due, guard.Sub(t0), func() time.Duration { return time.Since(t0) }, time.Sleep, func(i int) bool {
		s := p.studies[i]
		p.ops.attempted.Add(1)
		s.due, s.sent = t0.Add(due[i]), time.Now()
		v, err := p.cl.create(ctx, s.token, s.plan.spec, root)
		if err != nil {
			s.err = err
			p.violate("submission: %v", err)
		} else {
			s.id, s.acked = v.ID, time.Now()
		}
		return ctx.Err() == nil
	})
	for _, l := range late {
		p.lateMS.add(float64(l) / 1e6)
	}
	if len(late) < len(due) {
		p.deadlineHit.Store(true)
	}
	close(stopPoller)
	pollerDone.Wait()
	return time.Now()
}

// pace is the open-loop scheduler: it calls send(i) at due[i] (offsets from
// the start of the window, ascending) whatever earlier sends did, and
// returns how late each send began. A send that overruns makes the next
// ones late — they are never skipped and never re-timed, so the lateness it
// caused is on the record and latencies can be taken from the due time.
// Sends due after guard are not made; send returning false stops the loop.
func pace(due []time.Duration, guard time.Duration, now func() time.Duration, sleep func(time.Duration), send func(i int) bool) []time.Duration {
	late := make([]time.Duration, 0, len(due))
	for i, d := range due {
		if d > guard {
			break
		}
		if wait := d - now(); wait > 0 {
			sleep(wait)
		}
		late = append(late, max(0, now()-d))
		if !send(i) {
			break
		}
	}
	return late
}

// awaitTerminal polls the study list until every acknowledged study is
// terminal (after a restart, the interrupted ones resume first).
func (p *passResult) awaitTerminal(ctx context.Context) {
	deadline := time.Now().Add(studyTimeout)
	for {
		active := 0
		for _, token := range p.tokens() {
			views, err := p.cl.list(ctx, token)
			if err != nil {
				p.violate("listing after restart: %v", err)
				return
			}
			for _, v := range views {
				if v.State == "created" || v.State == "queued" || v.State == "running" {
					active++
				}
			}
		}
		if active == 0 {
			return
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			p.violate("%d studies still active %s after restart", active, studyTimeout)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// tokens returns one bearer token per tenant ("" without tenancy).
func (p *passResult) tokens() []string {
	if len(p.w.tenants) == 0 {
		return []string{""}
	}
	out := make([]string, len(p.w.tenants))
	for i, t := range p.w.tenants {
		out[i] = t.Token
	}
	return out
}

// readPhase is the reads after the writes — list, trials, timeline, SSE
// catch-up from 0 and replay verification over a seeded sample of terminal
// studies — and the output checks that need those answers.
func (p *passResult) readPhase(ctx context.Context) {
	w := p.w
	sp := p.tr.begin("read_phase", "", 0)
	defer p.tr.end(sp)

	// No acknowledged study may be missing, and every one must be done.
	known := map[string]studyView{}
	for _, tok := range p.tokens() {
		views, err := p.cl.list(ctx, tok)
		if err != nil {
			p.violate("list: %v", err)
			return
		}
		for _, v := range views {
			known[v.ID] = v
		}
	}
	var pool []*studyRun
	for _, s := range p.studies {
		if s.id == "" {
			continue
		}
		v, ok := known[s.id]
		if !ok {
			p.violate("acknowledged study %s is missing from the listing", s.id)
			continue
		}
		if v.State != "done" {
			p.violate("study %s ended %q (%s), want done", s.id, v.State, v.Error)
			continue
		}
		if v.Trials != w.wantTrials {
			p.violate("study %s has %d trials, the sampler defines %d", s.id, v.Trials, w.wantTrials)
		}
		p.totalTrials += v.Trials
		p.memoTrials += v.Memoized
		pool = append(pool, s)
	}
	if len(pool) == 0 {
		p.violate("no study finished")
		return
	}
	r := rand.New(rand.NewSource(int64(p.cfg.seed) + 17))
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	sample := pool
	if len(sample) > 32 {
		sample = sample[:32]
	}
	rounds := (readSamples + len(sample) - 1) / len(sample)
	for round := 0; round < rounds; round++ {
		if _, err := p.cl.list(ctx, sample[0].token); err != nil {
			p.violate("list: %v", err)
		}
		for _, s := range sample {
			if ctx.Err() != nil {
				return
			}
			if _, err := p.cl.trials(ctx, s.token, s.id); err != nil {
				p.violate("trials of %s: %v", s.id, err)
			}
			t0 := time.Now()
			n := 0
			err := p.cl.events(ctx, s.token, s.id, 0, sp, func(sseEvent) error { n++; return nil })
			if err != nil {
				p.violate("catch-up of %s: %v", s.id, err)
			} else if n == 0 {
				p.violate("catch-up of %s from 0 returned no events", s.id)
			}
			p.catchupRate.add(float64(n) / time.Since(t0).Seconds())
			ans, err := p.cl.verify(ctx, s.token, s.id)
			if err != nil {
				p.violate("verify of %s: %v", s.id, err)
			} else if !ans.OK {
				p.violate("verify of %s: replay disagrees with the journal: %s", s.id, ans.Error)
			}
		}
	}
	if p.tr != nil {
		// The traced pass also fetches the gantt rows of the studies it
		// will join against the journal: joinJournal turns them into
		// per-trial spans.
		fetched := 0
		for _, s := range pool {
			if !s.sampled || fetched >= 32 {
				continue
			}
			fetched++
			tl, err := p.cl.timeline(ctx, s.token, s.id)
			if err != nil {
				p.violate("timeline of %s: %v", s.id, err)
				continue
			}
			s.rows = tl.Rows
		}
	}

	// A memoized repeat must return exactly what its original returned.
	checked := 0
	for _, s := range p.studies {
		if s.plan.repeatOf < 0 || s.id == "" || checked >= 16 {
			continue
		}
		orig := p.studies[s.plan.repeatOf]
		if orig.id == "" {
			continue
		}
		a, errA := p.cl.trials(ctx, orig.token, orig.id)
		b, errB := p.cl.trials(ctx, s.token, s.id)
		if errA != nil || errB != nil {
			p.violate("trials of repeat pair %s/%s: %v %v", orig.id, s.id, errA, errB)
			continue
		}
		if ka, kb := trialKey(a), trialKey(b); ka != kb {
			p.violate("memoized repeat %s differs from its original %s:\n  %s\n  %s", s.id, orig.id, kb, ka)
		}
		checked++
	}
}

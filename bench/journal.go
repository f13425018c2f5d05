package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/store"
)

// fsTypeOf names the filesystem holding dir (longest mount-point prefix in
// /proc/self/mounts): fsync cost depends on it, so results from different
// filesystems are not comparable.
func fsTypeOf(dir string) string {
	raw, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), f[2]
		}
	}
	return fs
}

// trialKey renders a study's trials as a canonical string — config and
// best accuracy per trial, ordered by config — so two studies compare
// equal exactly when every configuration returned the same result.
func trialKey(trials []trialView) string {
	keys := make([]string, len(trials))
	for i, t := range trials {
		cfg, _ := json.Marshal(t.Config) // a map of JSON scalars always encodes
		keys[i] = fmt.Sprintf("%s=%.12g", cfg, t.BestAcc)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// joinJournal reads the sampled studies' record streams straight from the
// journal directory (store.SnapshotStudyRecords: lock-free, what `hpo
// replay` uses) after the child has stopped, and derives what only the
// journal's `at` stamps can give: admission wait (queued → running),
// open-loop latencies from the due time, SSE delivery lag (client receive
// − record `at`, joined on the sequence number), recovery after the kill,
// and the per-study sequence check. With tracing on it also adds the
// derived lifecycle spans.
func (p *passResult) joinJournal(killedAt, healthyAt time.Time) {
	recoveredAt := healthyAt
	for _, s := range p.studies {
		if !s.sampled || s.id == "" || s.err != nil {
			continue
		}
		_, recs, err := store.SnapshotStudyRecords(p.journalDir, s.id)
		if err != nil {
			p.violate("journal of %s: %v", s.id, err)
			continue
		}
		at := make(map[uint64]time.Time, len(recs))
		var queued, running, firstMetric, doneAt, afterKill time.Time
		var lastSeq uint64
		for _, r := range recs {
			if r.Seq <= lastSeq {
				p.violate("journal of %s: seq %d follows %d", s.id, r.Seq, lastSeq)
			}
			lastSeq = r.Seq
			at[r.Seq] = r.At
			switch {
			case r.Type == "state" && r.State == store.StateQueued && queued.IsZero():
				queued = r.At
			case r.Type == "state" && r.State == store.StateRunning && running.IsZero():
				running = r.At
			case r.Type == "metric" && firstMetric.IsZero():
				firstMetric = r.At
			case r.Type == "state" && r.State == store.StateDone:
				doneAt = r.At
			}
			if !killedAt.IsZero() && afterKill.IsZero() && r.At.After(killedAt) {
				afterKill = r.At
			}
		}
		if !queued.IsZero() && !running.IsZero() {
			p.admitMS.add(float64(running.Sub(queued)) / 1e6)
		}
		if p.w.openLoop {
			// Latencies count from when the request was due, so a stalled
			// generator or daemon charges the wait to the requests behind it.
			if killedAt.IsZero() || (!doneAt.IsZero() && doneAt.Before(killedAt)) {
				if !doneAt.IsZero() {
					p.finished++
					p.studyMS.add(float64(doneAt.Sub(s.due)) / 1e6)
				}
				if !firstMetric.IsZero() {
					p.firstEpochMS.add(float64(firstMetric.Sub(s.due)) / 1e6)
				}
			} else {
				// Not terminal when the child was killed: recovery must
				// have journaled something new for it.
				p.interrupted++
				if afterKill.IsZero() {
					p.violate("interrupted study %s journaled nothing after the restart", s.id)
				} else if afterKill.After(recoveredAt) {
					recoveredAt = afterKill
				}
			}
		}
		for _, rt := range s.recv {
			if stamp, ok := at[rt.seq]; ok {
				p.sseLagMS.add(float64(rt.at.Sub(stamp)) / 1e6)
				// One span per delivered event: journaled → received.
				p.tr.add("sse.deliver", s.id, s.span, stamp, rt.at)
			}
		}
		if p.tr != nil {
			p.deriveSpans(s, recs[0].At, queued, running, firstMetric, doneAt)
		}
	}
	if !killedAt.IsZero() {
		p.recoveryS = recoveredAt.Sub(killedAt).Seconds()
		p.tr.add("recovery.resume", "", 0, killedAt, recoveredAt)
	}
}

// deriveSpans turns one study's journal stamps into lifecycle spans under
// the client's study span: queued → running → first metric → terminal, and
// one span per /timeline row (a trial, from its first to its last record).
func (p *passResult) deriveSpans(s *studyRun, base, queued, running, firstMetric, doneAt time.Time) {
	if queued.IsZero() || running.IsZero() || doneAt.IsZero() {
		return
	}
	p.tr.add("journal.queued", s.id, s.span, queued, running)
	run := p.tr.add("journal.running", s.id, s.span, running, doneAt)
	if !firstMetric.IsZero() {
		p.tr.add("journal.until_first_metric", s.id, run, running, firstMetric)
	}
	// /timeline counts from the study's first journal record (base).
	for _, row := range s.rows {
		p.tr.add("timeline.trial", s.id, run, base.Add(time.Duration(row.StartNS)), base.Add(time.Duration(row.EndNS)))
	}
}

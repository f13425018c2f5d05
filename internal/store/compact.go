package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"
)

// CompactionStats counts what compaction has reclaimed. Returned per run
// by Compact and cumulatively by Stats (the daemon surfaces the latter in
// /healthz).
type CompactionStats struct {
	// Runs counts completed Compact invocations.
	Runs int `json:"runs"`
	// StudiesCompacted counts studies rewritten down to summary records.
	StudiesCompacted int `json:"studies_compacted"`
	// RecordsDropped counts journal records removed from disk (per-epoch
	// metrics, superseded state transitions, prune markers).
	RecordsDropped int64 `json:"records_dropped"`
	// SegmentsRemoved counts segment files unlinked.
	SegmentsRemoved int `json:"segments_removed"`
	// BytesReclaimed sums the sizes of unlinked segment files.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// VerifyRefusals counts studies left uncompacted because the
	// SetCompactVerify hook rejected them (replay divergence/corruption).
	VerifyRefusals int `json:"verify_refusals"`
}

// add folds another run's counters in.
func (s *CompactionStats) add(d CompactionStats) {
	s.Runs += d.Runs
	s.StudiesCompacted += d.StudiesCompacted
	s.RecordsDropped += d.RecordsDropped
	s.SegmentsRemoved += d.SegmentsRemoved
	s.BytesReclaimed += d.BytesReclaimed
	s.VerifyRefusals += d.VerifyRefusals
}

// SetCompactVerify installs a pre-compaction gate: before a study's full
// record stream is dropped, fn is called with the study id, and a non-nil
// error refuses compaction for that study (the run continues with the
// rest). The daemon wires this to replay verification so compaction can
// never destroy the evidence of a divergent or corrupt decision stream —
// once the per-epoch records are gone, the byte-match contract of
// docs/JOURNAL.md §8 is unverifiable. Pass nil to disable. fn is called
// without journal locks held and may use the journal's read API.
func (j *Journal) SetCompactVerify(fn func(id string) error) {
	j.mu.Lock()
	j.compactVerify = fn
	j.mu.Unlock()
}

// JournalStats is a point-in-time description of the store for health
// endpoints: index sizes, on-disk segment count and cumulative compaction
// counters.
type JournalStats struct {
	Studies        int `json:"studies"`
	Segments       int `json:"segments"`
	EventsRetained int `json:"events_retained"`
	// EventWindows counts studies with a resident in-memory event window
	// (terminal studies lose theirs at compaction/boot, so this tracks
	// live studies rather than total history).
	EventWindows int `json:"event_windows"`
	// OpenSegmentHandles counts studies holding an open append fd, bounded
	// by JournalOptions.MaxOpenSegments.
	OpenSegmentHandles int             `json:"open_segment_handles"`
	Seq                uint64          `json:"seq"`
	Compaction         CompactionStats `json:"compaction"`
}

// Stats reports the journal's current shape and cumulative compaction
// counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{
		Studies: len(j.studies), Seq: j.seq, Compaction: j.stats,
		EventWindows: len(j.windows), OpenSegmentHandles: j.lru.Len(),
	}
	for _, ss := range j.seg {
		st.Segments += len(ss.nums)
	}
	for _, w := range j.windows {
		st.EventsRetained += w.len()
	}
	return st
}

// Compact rewrites every eligible terminal study down to its summary
// records: one "study" record carrying the final metadata and one "trial"
// record per recorded trial. Per-epoch metric telemetry, prune markers and
// superseded state transitions are dropped — the final values all live in
// the trial records, so no acknowledged result is lost. Returns the run's
// counters.
//
// Compaction is crash-safe: the rewritten segment is fully written and
// fsynced under a fresh segment number, and only then does a manifest
// rewrite commit the swap. A crash before the commit leaves the old
// segments authoritative (the new file is deleted as debris on the next
// Open); a crash after it leaves the new segment authoritative (the old
// files are deleted on the next Open).
func (j *Journal) Compact() (CompactionStats, error) {
	// One compaction run at a time: the background ticker and the admin
	// endpoint must not interleave per-study swaps.
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	var delta CompactionStats
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return delta, ErrClosed
	}
	var candidates []string
	for _, id := range j.order {
		if j.compactableLocked(id) {
			candidates = append(candidates, id)
		}
	}
	j.mu.Unlock()
	for _, id := range candidates {
		d, err := j.compactStudy(id)
		delta.add(d)
		if err != nil {
			return delta, err
		}
	}
	delta.Runs = 1
	j.mu.Lock()
	j.stats.add(delta)
	j.mu.Unlock()
	obsCompactionRuns.Inc()
	obsCompactedStudies.Add(uint64(delta.StudiesCompacted))
	obsCompactionDropped.Add(uint64(delta.RecordsDropped))
	obsCompactionBytes.Add(uint64(delta.BytesReclaimed))
	return delta, nil
}

// compactableLocked reports whether a study would shrink under compaction:
// terminal, and carrying either more records than its compacted form or
// more than one segment file. Callers must hold j.mu.
func (j *Journal) compactableLocked(id string) bool {
	meta, ss := j.studies[id], j.seg[id]
	if meta == nil || ss == nil || !meta.State.Terminal() {
		return false
	}
	return ss.recs > len(j.trials[id])+1 || len(ss.nums) > 1
}

// compactStudy rewrites one terminal study. It snapshots the index state,
// writes the replacement segment without holding the append lock, then
// revalidates and commits under the lock — a study that advanced in
// between (an operator re-started it) is left alone for a later run.
func (j *Journal) compactStudy(id string) (CompactionStats, error) {
	var d CompactionStats
	j.mu.Lock()
	verify := j.compactVerify
	j.mu.Unlock()
	if verify != nil {
		if err := verify(id); err != nil {
			// Refusing is the whole point: compaction would drop the very
			// records a divergence investigation needs. Keep the study as-is
			// and let the operator run POST /v1/studies/{id}/verify.
			obsCompactionVerifyRefusals.Inc()
			log.Printf("store: refusing to compact study %s: pre-compaction replay verification failed: %v", id, err)
			d.VerifyRefusals = 1
			return d, nil
		}
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return d, ErrClosed
	}
	if !j.compactableLocked(id) {
		j.mu.Unlock()
		return d, nil
	}
	ss := j.seg[id]
	snapMeta := *j.studies[id]
	snapTrials := append([]Trial(nil), j.trials[id]...)
	snapSeq := ss.lastSeq
	oldNums := append([]int(nil), ss.nums...)
	oldRecs := ss.recs
	j.mu.Unlock()

	// Build and persist the compacted segment under the next number. All
	// records carry the study's last pre-compaction sequence number: replay
	// only needs seq as a global high-water mark and an interleaving key,
	// and reusing it keeps compaction from consuming live sequence space.
	dir := studyDir(j.dir, id)
	next := oldNums[len(oldNums)-1] + 1
	var buf bytes.Buffer
	recs := make([]record, 0, 1+len(snapTrials))
	recs = append(recs, record{Seq: snapSeq, Type: recStudy, StudyID: id, Study: &snapMeta, At: snapMeta.UpdatedAt})
	for i := range snapTrials {
		// Long epoch histories dominate compacted segment size; store them
		// delta-encoded (the index keeps the decoded copy it already holds).
		tc := encodeTrialHistory(snapTrials[i])
		recs = append(recs, record{Seq: snapSeq, Type: recTrial, StudyID: id, Trial: &tc, At: snapMeta.UpdatedAt})
	}
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return d, fmt.Errorf("store: encoding compacted record: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp := filepath.Join(dir, segmentFileName(next)+".tmp")
	if err := writeFileSync(tmp, buf.Bytes(), j.opts.NoSync); err != nil {
		return d, err
	}
	final := filepath.Join(dir, segmentFileName(next))

	// Commit: swap the in-memory segment table and rewrite the manifest.
	// commitMu is held so the group-commit path never fsyncs the active
	// segment's file handle while this closes it. The rename onto the
	// final segment name happens under the lock too: only after
	// revalidation is it known that no racing rotation claimed the same
	// number (renaming earlier could clobber that rotation's live file).
	j.commitMu.Lock()
	j.mu.Lock()
	if j.closed || ss.lastSeq != snapSeq || !j.studies[id].State.Terminal() {
		// The study advanced (or the store is closing) since the snapshot:
		// abandon this attempt and leave the staged bytes for the next
		// Open's debris sweep (or try removing them now).
		j.mu.Unlock()
		j.commitMu.Unlock()
		os.Remove(tmp)
		return d, nil
	}
	if err := os.Rename(tmp, final); err != nil {
		j.mu.Unlock()
		j.commitMu.Unlock()
		os.Remove(tmp)
		return d, fmt.Errorf("store: placing compacted segment: %w", err)
	}
	if err := syncDir(dir, j.opts.NoSync); err != nil {
		j.mu.Unlock()
		j.commitMu.Unlock()
		os.Remove(final)
		return d, err
	}
	if ss.w != nil {
		// Buffered-but-unflushed bytes die with the old segment; every
		// record they encode is already in the snapshot just persisted.
		ss.f.Close()
		ss.f, ss.w = nil, nil
	}
	j.detachOpenLocked(ss)
	delete(j.dirtySet, id)
	ss.nums = []int{next}
	ss.recs = 1 + len(snapTrials)
	ss.size = int64(buf.Len())
	if err := j.writeManifestLocked(); err != nil {
		// The manifest still lists the old segments, so they remain
		// authoritative; the new file becomes debris for the next Open.
		ss.nums = oldNums
		ss.recs = oldRecs
		j.mu.Unlock()
		j.commitMu.Unlock()
		os.Remove(final)
		return d, err
	}
	// Mirror the on-disk drop in memory: a compacted study's event window
	// and promotion history are evicted wholesale — SSE resume is served
	// purely from index snapshots from here on, so neither map grows with
	// terminal-study count.
	delete(j.windows, id)
	delete(j.promotes, id)
	d.StudiesCompacted = 1
	d.RecordsDropped = int64(oldRecs - ss.recs)
	j.mu.Unlock()
	j.commitMu.Unlock()

	// The manifest no longer references the old segments; unlink them.
	// Failures are harmless — the next Open prunes unlisted files.
	for _, n := range oldNums {
		p := filepath.Join(dir, segmentFileName(n))
		if st, err := os.Stat(p); err == nil {
			d.BytesReclaimed += st.Size()
		}
		if err := os.Remove(p); err == nil {
			d.SegmentsRemoved++
		}
	}
	return d, nil
}

// startCompactor runs Compact every interval until Close.
func (j *Journal) startCompactor(interval time.Duration) {
	j.compactStop = make(chan struct{})
	j.compactDone = make(chan struct{})
	stop, done := j.compactStop, j.compactDone
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err := j.Compact(); errors.Is(err, ErrClosed) {
					return
				}
			}
		}
	}()
}

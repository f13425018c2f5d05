package store

import (
	"bufio"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Journal record types. Every JSONL line in a segment carries exactly one
// of these in its "type" field; recordTypes (store.go) enumerates them for
// the docs spec check.
const (
	recStudy   = "study"
	recState   = "state"
	recTrial   = "trial"
	recMetric  = "metric"
	recPrune   = "prune"
	recPromote = "promote"
)

// record is one JSONL journal line. Exactly one of Study / Trial / State /
// Metric / Prune / Promote payloads is set, per Type.
type record struct {
	Seq     uint64         `json:"seq"`
	Type    string         `json:"type"` // one of recordTypes
	StudyID string         `json:"study_id,omitempty"`
	Study   *StudyMeta     `json:"study,omitempty"`
	State   StudyState     `json:"state,omitempty"`
	Error   string         `json:"error,omitempty"`
	Summary *Summary       `json:"summary,omitempty"`
	Trial   *Trial         `json:"trial,omitempty"`
	Metric  *MetricPoint   `json:"metric,omitempty"`
	Prune   *PruneDecision `json:"prune,omitempty"`
	Promote *Promotion     `json:"promote,omitempty"`
	At      time.Time      `json:"at"`
}

// Event is a journal record surfaced to watchers (the server's per-trial
// event stream). Seq orders events globally and doubles as the SSE id, so
// clients can resume a stream with "?since=<seq>". Snapshot marks events
// synthesized from the index when a resume point has aged out of the
// in-memory retention window (see EventsSince).
type Event struct {
	Seq      uint64         `json:"seq"`
	Type     string         `json:"type"`
	StudyID  string         `json:"study_id"`
	State    StudyState     `json:"state,omitempty"`
	Error    string         `json:"error,omitempty"`
	Trial    *Trial         `json:"trial,omitempty"`
	Metric   *MetricPoint   `json:"metric,omitempty"`
	Prune    *PruneDecision `json:"prune,omitempty"`
	Promote  *Promotion     `json:"promote,omitempty"`
	Snapshot bool           `json:"snapshot,omitempty"`
}

// Defaults for JournalOptions zero values.
const (
	// DefaultRetainEvents is the per-study in-memory event window used when
	// JournalOptions.RetainEvents is zero.
	DefaultRetainEvents = 1024
	// DefaultMaxSegmentBytes is the segment rotation threshold used when
	// JournalOptions.MaxSegmentBytes is zero.
	DefaultMaxSegmentBytes = 4 << 20
	// DefaultMaxOpenSegments is the open segment-handle ceiling used when
	// JournalOptions.MaxOpenSegments is zero.
	DefaultMaxOpenSegments = 128
)

// JournalOptions tunes Open.
type JournalOptions struct {
	// NoSync skips fsync after commits (tests, benchmarks). The journal is
	// still written append-only and crash recovery still works up to the OS
	// page cache.
	NoSync bool
	// RetainEvents bounds the in-memory per-study event window that feeds
	// SSE resume: only the last RetainEvents events of each study stay
	// addressable by sequence number; resuming below the window returns a
	// synthesized snapshot instead (see EventsSince). 0 means
	// DefaultRetainEvents; negative means unbounded (tests).
	RetainEvents int
	// MaxSegmentBytes rotates a study's active segment once it grows past
	// this size, so compaction and recovery work file-at-a-time. 0 means
	// DefaultMaxSegmentBytes; negative disables rotation.
	MaxSegmentBytes int64
	// CompactInterval, when positive, runs Compact in the background on
	// that period until Close.
	CompactInterval time.Duration
	// MaxOpenSegments bounds how many studies keep an open append handle at
	// once: the least-recently-written study's segment is flushed, fsynced
	// and closed when the ceiling is hit, and transparently reopened on its
	// next append — so a daemon serving thousands of live studies holds a
	// constant number of file descriptors instead of one per study ever
	// touched. 0 means DefaultMaxOpenSegments; negative means unbounded.
	MaxOpenSegments int
}

// studySegments is the per-study file state: which segment numbers are
// live, the open append handle on the highest one, and the counters that
// drive rotation and compaction eligibility.
type studySegments struct {
	nums    []int // live segment numbers, ascending; the last is active
	f       *os.File
	w       *bufio.Writer
	size    int64  // bytes in the active segment
	recs    int    // records across all live segments (on-disk, pre-filter)
	lastSeq uint64 // seq of the study's most recent record
	// lruEl is the study's slot in the open-handle LRU while f is open.
	lruEl *list.Element
}

// trialKey identifies one trial record within a study.
type trialKey struct {
	id int
	fp string
}

// Journal is the persistent study store: a sharded append-only JSONL
// write-ahead log (one directory of per-study segment files plus a
// manifest, see docs/JOURNAL.md) and an in-memory index rebuilt on Open.
// All methods are safe for concurrent use.
//
// Durability uses group commit: every append flushes and fsyncs, but
// concurrent appenders coalesce onto a single fsync pass (the first writer
// through syncs everything buffered so far; the rest observe their
// sequence number already durable and return without touching the disk).
//
// Terminal studies are compactable: Compact (or the background compactor)
// rewrites them down to their summary records — the study metadata and the
// final trial results — dropping per-epoch metric telemetry, so boot
// replay time scales with live studies rather than total history.
type Journal struct {
	mu      sync.Mutex // guards file writes and the index
	dir     string
	opts    JournalOptions
	retain  int   // resolved RetainEvents (0 = unbounded)
	maxSeg  int64 // resolved MaxSegmentBytes (0 = never rotate)
	maxOpen int   // resolved MaxOpenSegments (0 = unbounded)
	closed  bool
	seq     uint64
	// lru orders studies with open append handles, most recent first.
	lru *list.List

	lock *os.File // flock'd LOCK file — the single-writer guard

	studies map[string]*StudyMeta
	order   []string           // study ids in creation order
	trials  map[string][]Trial // per-study, append order
	// seenOK tracks each study's successful trials by id and fingerprint
	// (resume dedup: a resumed copy keeps its trial's id, while a distinct
	// trial that drew the same config has its own).
	seenOK map[string]map[trialKey]bool
	// memo maps scope+fingerprint → first successful trial across all
	// studies (see Trial.Scope).
	memo map[string]Trial
	// promotes holds each study's rung-promotion decisions in append order
	// (dropped by compaction along with the other telemetry).
	promotes map[string][]Promotion
	// epochsLive counts metric records appended since the study's last
	// terminal transition — the in-flight half of epoch accounting. Each
	// terminal state record absorbs it into Summary.Epochs (and from there
	// into StudyMeta.EpochsExecuted), so per-tenant usage re-derives
	// exactly from replay: terminal runs from the durable summary, the
	// live run from its replayed metric records.
	epochsLive map[string]int
	// seg tracks each study's live segment files; segOrder mirrors the
	// manifest's study order (creation order, including studies whose
	// first record never landed).
	seg      map[string]*studySegments
	segOrder []string
	// dirtySet names studies with buffered writes awaiting the next commit.
	dirtySet map[string]struct{}
	// retired holds segment file handles sealed by rotation. They are
	// already flushed and fsynced but must not be closed under j.mu alone:
	// a commit in flight may have collected the handle for its lock-free
	// fsync pass. They are closed under commitMu (commit, Close), which
	// serialises with every fsync.
	retired []*os.File
	// retiredDirty holds handles closed by LRU eviction: flushed but not
	// yet fsynced — eviction must not pay an fsync on the append path. The
	// next group commit (or Close) fsyncs them before closing, so the
	// durability point never advances past unsynced evicted records.
	retiredDirty []*os.File
	// windows holds the per-study retained event ring served to watchers.
	windows map[string]*eventWindow
	// watchers are closed-and-replaced on every append (broadcast).
	watch chan struct{}

	// stats accumulates compaction counters for Stats / healthz.
	stats CompactionStats
	// compactMu serialises whole compaction runs (ticker vs admin endpoint).
	compactMu   sync.Mutex
	compactStop chan struct{}
	compactDone chan struct{}
	// compactVerify, when set, gates per-study compaction: a non-nil error
	// leaves the study's full record stream on disk (see SetCompactVerify).
	compactVerify func(id string) error

	// commitMu serialises fsyncs; synced is the highest durable seq.
	commitMu sync.Mutex
	synced   uint64
}

// OpenJournal opens (or creates) the sharded journal directory at path and
// replays it into memory. A regular file at path — such as a pre-shard
// single-file journal — is refused with ErrCorrupt and left untouched. The
// store is flock'd exclusively — a second process opening the same journal
// gets ErrLocked rather than silently interleaving writes. A partially
// written final record in a study's active segment — the signature of a
// crash mid append — is detected and truncated away; corruption anywhere
// else returns ErrCorrupt.
func OpenJournal(path string, opts JournalOptions) (*Journal, error) {
	j := &Journal{
		dir:        path,
		opts:       opts,
		retain:     resolveRetain(opts.RetainEvents),
		maxSeg:     resolveMaxSeg(opts.MaxSegmentBytes),
		maxOpen:    resolveMaxOpen(opts.MaxOpenSegments),
		lru:        list.New(),
		studies:    make(map[string]*StudyMeta),
		trials:     make(map[string][]Trial),
		seenOK:     make(map[string]map[trialKey]bool),
		memo:       make(map[string]Trial),
		promotes:   make(map[string][]Promotion),
		epochsLive: make(map[string]int),
		seg:        make(map[string]*studySegments),
		dirtySet:   make(map[string]struct{}),
		windows:    make(map[string]*eventWindow),
		watch:      make(chan struct{}),
	}
	fi, err := os.Stat(path)
	switch {
	case err == nil && !fi.IsDir():
		return nil, fmt.Errorf("%w: %s is not a journal directory", ErrCorrupt, path)
	case os.IsNotExist(err):
		if err := os.MkdirAll(filepath.Join(path, studiesDirName), 0o755); err != nil {
			return nil, fmt.Errorf("store: creating journal dir: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("store: stat journal: %w", err)
	}
	lf, err := os.OpenFile(filepath.Join(path, lockName), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal lock: %w", err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, path)
	}
	j.lock = lf
	// Replay (and possibly truncate torn active-segment tails) only after
	// the lock is held, so recovery never races a live writer. Closing the
	// lock file releases the flock.
	if err := j.replay(); err != nil {
		lf.Close()
		return nil, err
	}
	j.synced = j.seq
	if opts.CompactInterval > 0 {
		j.startCompactor(opts.CompactInterval)
	}
	return j, nil
}

// resolveRetain maps the RetainEvents option onto the window cap (0 =
// unbounded).
func resolveRetain(n int) int {
	switch {
	case n == 0:
		return DefaultRetainEvents
	case n < 0:
		return 0
	}
	return n
}

// resolveMaxSeg maps the MaxSegmentBytes option onto the rotation
// threshold (0 = never rotate).
func resolveMaxSeg(n int64) int64 {
	switch {
	case n == 0:
		return DefaultMaxSegmentBytes
	case n < 0:
		return 0
	}
	return n
}

// resolveMaxOpen maps the MaxOpenSegments option onto the open-handle
// ceiling (0 = unbounded).
func resolveMaxOpen(n int) int {
	switch {
	case n == 0:
		return DefaultMaxOpenSegments
	case n < 0:
		return 0
	}
	return n
}

// replay loads every manifest-listed segment into the index. Per study,
// earlier segments must parse cleanly (they were fsynced before their
// manifest commit); only the active segment may carry a torn tail, which
// is truncated. Per-epoch metric records of terminal studies are skipped —
// they are dropped by compaction anyway, and replaying them would grow
// boot memory with history no consumer can use.
func (j *Journal) replay() error {
	man, ok, err := readManifest(j.dir)
	if err != nil {
		return err
	}
	if !ok {
		// No manifest: only legal before the first study exists (a fresh
		// dir, or a crash before the first manifest write).
		if entries, _ := os.ReadDir(filepath.Join(j.dir, studiesDirName)); len(entries) > 0 {
			return fmt.Errorf("%w: segment data without a manifest in %s", ErrCorrupt, j.dir)
		}
		if err := os.MkdirAll(filepath.Join(j.dir, studiesDirName), 0o755); err != nil {
			return fmt.Errorf("store: creating studies dir: %w", err)
		}
		return writeManifest(j.dir, manifest{Version: manifestVersion}, j.opts.NoSync)
	}
	var all []record
	for _, ms := range man.Studies {
		recs, ss, err := j.replayStudy(ms)
		if err != nil {
			return err
		}
		j.seg[ms.ID] = ss
		j.segOrder = append(j.segOrder, ms.ID)
		all = append(all, recs...)
		// lastSeq counts filtered-out records too: the seq counter must
		// never re-issue a number still occupied on disk.
		if ss.lastSeq > j.seq {
			j.seq = ss.lastSeq
		}
	}
	// Segments hold per-study slices of the global sequence; interleave
	// them back into append order before applying.
	sort.SliceStable(all, func(a, b int) bool { return all[a].Seq < all[b].Seq })
	for _, rec := range all {
		j.apply(rec)
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
	}
	// Terminal studies' windows are dropped wholesale: their SSE resume is
	// served purely from index snapshots, so boot memory does not grow with
	// finished-study history.
	for id, meta := range j.studies {
		if meta.State.Terminal() {
			delete(j.windows, id)
		}
	}
	return nil
}

// replayStudy reads one study's live segments, truncating a torn tail on
// the active segment and deleting stale (unlisted) segment files left by a
// crashed compaction. Metric records are filtered out when the study ended
// terminal.
func (j *Journal) replayStudy(ms manifestStudy) ([]record, *studySegments, error) {
	dir := studyDir(j.dir, ms.ID)
	if _, err := pruneStaleSegments(dir, ms.Segments); err != nil {
		return nil, nil, err
	}
	nums := append([]int(nil), ms.Segments...)
	sort.Ints(nums)
	recs, size, torn, err := readStudySegments(dir, nums)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		if err := os.Truncate(filepath.Join(dir, segmentFileName(nums[len(nums)-1])), size); err != nil {
			return nil, nil, fmt.Errorf("store: truncating torn segment tail: %w", err)
		}
	}
	ss := &studySegments{nums: nums, size: size, recs: len(recs)}
	terminal := false
	for _, rec := range recs {
		if rec.Seq > ss.lastSeq {
			ss.lastSeq = rec.Seq
		}
		switch rec.Type {
		case recStudy:
			if rec.Study != nil {
				terminal = rec.Study.State.Terminal()
			}
		case recState:
			terminal = rec.State.Terminal()
		default:
			// Trial/metric/prune/promote records never change terminality.
		}
	}
	if terminal {
		kept := recs[:0]
		for _, rec := range recs {
			// Telemetry of a finished study: compaction drops it from disk
			// and no consumer can use it, so replay does not resurrect it.
			if rec.Type == recMetric || rec.Type == recPromote {
				continue
			}
			kept = append(kept, rec)
		}
		recs = kept
	}
	return recs, ss, nil
}

// applyState folds a state record's fields into the study's metadata.
func (m *StudyMeta) applyState(rec record) {
	m.State = rec.State
	m.Error = rec.Error
	m.UpdatedAt = rec.At
	if rec.Summary != nil {
		m.Trials = rec.Summary.Trials
		m.Resumed = rec.Summary.Resumed
		m.Memoized = rec.Summary.Memoized
		m.BestAcc = rec.Summary.BestAcc
		if rec.Summary.Epochs > 0 || rec.State.Terminal() {
			m.EpochsExecuted = rec.Summary.Epochs
		}
	}
}

// apply folds one record into the in-memory index and the study's event
// window.
func (j *Journal) apply(rec record) {
	switch rec.Type {
	case recStudy:
		if rec.Study == nil {
			return
		}
		meta := *rec.Study
		if meta.State == "" {
			meta.State = StateCreated
		}
		if _, dup := j.studies[meta.ID]; !dup {
			j.order = append(j.order, meta.ID)
		}
		j.studies[meta.ID] = &meta
		j.pushEvent(Event{Seq: rec.Seq, Type: recStudy, StudyID: meta.ID, State: meta.State})
	case recState:
		meta, ok := j.studies[rec.StudyID]
		if !ok {
			return
		}
		meta.applyState(rec)
		if rec.State.Terminal() {
			if rec.Summary == nil {
				// Pre-epoch-accounting journals end runs without a summary
				// on the failure path: fold the replayed live count so the
				// usage is not lost.
				meta.EpochsExecuted += j.epochsLive[rec.StudyID]
			}
			delete(j.epochsLive, rec.StudyID)
		}
		j.pushEvent(Event{Seq: rec.Seq, Type: recState, StudyID: rec.StudyID, State: rec.State, Error: rec.Error})
		if w := j.windows[rec.StudyID]; w != nil && rec.State.Terminal() {
			w.trim()
		}
	case recTrial:
		if rec.Trial == nil {
			return
		}
		t := decodeTrialHistory(*rec.Trial)
		t.Config = NormaliseConfig(t.Config)
		if t.Fingerprint == "" {
			t.Fingerprint = Fingerprint(t.Config)
		}
		j.trials[rec.StudyID] = append(j.trials[rec.StudyID], t)
		if t.Succeeded() {
			if j.seenOK[rec.StudyID] == nil {
				j.seenOK[rec.StudyID] = make(map[trialKey]bool)
			}
			j.seenOK[rec.StudyID][trialKey{t.ID, t.Fingerprint}] = true
			// Promoted trials trained past the budget their fingerprint
			// claims: they resume their own study but must not answer
			// cross-study lookups for the smaller budget.
			if !t.Promoted {
				key := memoKey(t.Scope, t.Fingerprint)
				if _, hit := j.memo[key]; !hit {
					j.memo[key] = t
				}
			}
		}
		tc := t
		j.pushEvent(Event{Seq: rec.Seq, Type: recTrial, StudyID: rec.StudyID, Trial: &tc})
	case recMetric:
		if rec.Metric == nil {
			return
		}
		j.epochsLive[rec.StudyID]++
		if w := j.windowFor(rec.StudyID, rec.Seq); w != nil {
			w.pushMetric(rec.Seq, rec.Metric)
		}
	case recPrune:
		if rec.Prune == nil {
			return
		}
		p := *rec.Prune
		j.pushEvent(Event{Seq: rec.Seq, Type: recPrune, StudyID: rec.StudyID, Prune: &p})
	case recPromote:
		if rec.Promote == nil {
			return
		}
		p := *rec.Promote
		j.promotes[rec.StudyID] = append(j.promotes[rec.StudyID], p)
		j.pushEvent(Event{Seq: rec.Seq, Type: recPromote, StudyID: rec.StudyID, Promote: &p})
	}
}

// memoKey namespaces the memo index by objective scope.
func memoKey(scope, fingerprint string) string { return scope + "\x00" + fingerprint }

// writerFor returns the open append state for a study's active segment,
// creating the study's directory, manifest entry and first segment when
// this is the study's first record. The manifest entry is committed before
// the segment file exists: a manifest-listed-but-missing segment replays
// as empty, while an unlisted file would be deleted as compaction debris.
// rotate permits sealing an oversized active segment — only durable
// appends pass it, because rotation fsyncs and the no-sync telemetry path
// must never wait on the disk (the segment merely overshoots the
// threshold until the study's next durable append). Callers must hold
// j.mu.
func (j *Journal) writerFor(id string, rotate bool) (*studySegments, error) {
	ss := j.seg[id]
	if ss == nil {
		if !validStudyID(id) {
			return nil, fmt.Errorf("store: invalid study id %q (allowed: letters, digits, '.', '_', '-', max 128 chars)", id)
		}
		if err := os.MkdirAll(studyDir(j.dir, id), 0o755); err != nil {
			return nil, fmt.Errorf("store: creating study dir: %w", err)
		}
		ss = &studySegments{nums: []int{1}}
		j.seg[id] = ss
		j.segOrder = append(j.segOrder, id)
		if err := j.writeManifestLocked(); err != nil {
			delete(j.seg, id)
			j.segOrder = j.segOrder[:len(j.segOrder)-1]
			return nil, err
		}
	}
	if ss.f == nil {
		if err := j.openActive(id, ss); err != nil {
			return nil, err
		}
	}
	if rotate && j.maxSeg > 0 && ss.size >= j.maxSeg {
		if err := j.rotateLocked(id, ss); err != nil {
			return nil, err
		}
	}
	j.touchOpenLocked(id, ss)
	if err := j.enforceOpenCapLocked(); err != nil {
		return nil, err
	}
	return ss, nil
}

// touchOpenLocked marks a study's open handle most-recently-used. Callers
// must hold j.mu.
func (j *Journal) touchOpenLocked(id string, ss *studySegments) {
	if ss.f == nil {
		return
	}
	if ss.lruEl == nil {
		ss.lruEl = j.lru.PushFront(id)
		return
	}
	j.lru.MoveToFront(ss.lruEl)
}

// detachOpenLocked removes a study from the open-handle LRU (its handle was
// closed by eviction, compaction or Close). Callers must hold j.mu.
func (j *Journal) detachOpenLocked(ss *studySegments) {
	if ss.lruEl != nil {
		j.lru.Remove(ss.lruEl)
		ss.lruEl = nil
	}
}

// enforceOpenCapLocked closes least-recently-written segment handles until
// the open count fits the ceiling. Eviction only flushes — no fsync on the
// append path, which at high live-study counts runs once per append — and
// parks the handle on retiredDirty; the next group commit fsyncs it before
// closing (and before advancing the durability point), so evicted records
// are exactly as durable as they were behind the buffered writer. The
// study transparently reopens on its next append. Callers must hold j.mu.
func (j *Journal) enforceOpenCapLocked() error {
	if j.maxOpen <= 0 {
		return nil
	}
	for j.lru.Len() > j.maxOpen {
		victim := j.lru.Back().Value.(string)
		ss := j.seg[victim]
		if ss == nil || ss.f == nil {
			j.lru.Remove(j.lru.Back())
			continue
		}
		if err := ss.w.Flush(); err != nil {
			return fmt.Errorf("store: flushing evicted segment: %w", err)
		}
		j.retiredDirty = append(j.retiredDirty, ss.f)
		ss.f, ss.w = nil, nil
		delete(j.dirtySet, victim)
		j.detachOpenLocked(ss)
		obsHandleEvictions.Inc()
	}
	return nil
}

// openActive opens (or creates) the study's highest-numbered segment for
// appending. Callers must hold j.mu.
func (j *Journal) openActive(id string, ss *studySegments) error {
	path := filepath.Join(studyDir(j.dir, id), segmentFileName(ss.nums[len(ss.nums)-1]))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat segment: %w", err)
	}
	ss.f = f
	ss.w = bufio.NewWriter(f)
	ss.size = st.Size()
	return nil
}

// rotateLocked seals the study's active segment (flush + fsync) and starts
// the next one, committing the new segment number to the manifest before
// the file is created. Callers must hold j.mu.
func (j *Journal) rotateLocked(id string, ss *studySegments) error {
	if err := ss.w.Flush(); err != nil {
		return fmt.Errorf("store: flushing segment for rotation: %w", err)
	}
	if !j.opts.NoSync {
		if err := ss.f.Sync(); err != nil {
			return fmt.Errorf("store: fsync segment for rotation: %w", err)
		}
	}
	j.retired = append(j.retired, ss.f)
	ss.f, ss.w = nil, nil
	delete(j.dirtySet, id)
	ss.nums = append(ss.nums, ss.nums[len(ss.nums)-1]+1)
	if err := j.writeManifestLocked(); err != nil {
		ss.nums = ss.nums[:len(ss.nums)-1]
		if reopenErr := j.openActive(id, ss); reopenErr != nil {
			return reopenErr
		}
		return err
	}
	obsSegmentRotations.Inc()
	return j.openActive(id, ss)
}

// writeManifestLocked commits the current segment table. Callers must hold
// j.mu.
func (j *Journal) writeManifestLocked() error {
	return writeManifest(j.dir, buildManifest(j.segOrder, j.seg), j.opts.NoSync)
}

// append writes one record, updates the index, wakes watchers and group
// commits. Returns the record's sequence number.
func (j *Journal) append(rec record) (uint64, error) {
	return j.appendBatch([]record{rec})
}

// appendBatch writes several records under one lock hold and one fsync
// pass — the round-commit fast path (a study recording a 32-trial round
// performs one durable write, not 32).
func (j *Journal) appendBatch(recs []record) (uint64, error) {
	return j.appendBatchOpts(recs, true)
}

// appendBatchOpts is appendBatch with durability control: with sync false
// the records land in the index, the event stream and the buffered writer
// but are not flushed/fsynced — best-effort telemetry (per-epoch metrics)
// must never serialise a transport read loop behind the disk. The next
// durable append (or Close) carries them down.
func (j *Journal) appendBatchOpts(recs []record, sync bool) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	now := time.Now().UTC()
	var seq uint64
	for i := range recs {
		if recs[i].Type == recState && recs[i].State.Terminal() {
			// A terminal transition settles the run's epoch usage into the
			// durable summary: prior finished runs (meta.EpochsExecuted)
			// plus this run's metric records. Synthesizing a summary on the
			// summary-less failure path must preserve the meta's existing
			// counters — apply() folds the summary back wholesale.
			if meta := j.studies[recs[i].StudyID]; meta != nil {
				sum := Summary{Trials: meta.Trials, Resumed: meta.Resumed,
					Memoized: meta.Memoized, BestAcc: meta.BestAcc}
				if recs[i].Summary != nil {
					sum = *recs[i].Summary
				}
				sum.Epochs = meta.EpochsExecuted + j.epochsLive[recs[i].StudyID]
				recs[i].Summary = &sum
			}
		}
		ss, err := j.writerFor(recs[i].StudyID, sync)
		if err != nil {
			j.mu.Unlock()
			return 0, err
		}
		j.seq++
		recs[i].Seq = j.seq
		recs[i].At = now
		line, err := json.Marshal(recs[i])
		if err != nil {
			j.mu.Unlock()
			return 0, fmt.Errorf("store: encoding record: %w", err)
		}
		if _, err := ss.w.Write(append(line, '\n')); err != nil {
			j.mu.Unlock()
			return 0, fmt.Errorf("store: appending record: %w", err)
		}
		ss.size += int64(len(line)) + 1
		ss.recs++
		ss.lastSeq = j.seq
		countAppend(recs[i].Type, len(line)+1)
		j.dirtySet[recs[i].StudyID] = struct{}{}
		j.apply(recs[i])
		seq = j.seq
	}
	close(j.watch)
	j.watch = make(chan struct{})
	j.mu.Unlock()
	if !sync {
		return seq, nil
	}
	return seq, j.commit(seq)
}

// commit makes everything up to seq durable. Concurrent callers coalesce:
// whoever holds commitMu flushes every dirty study's writer and fsyncs the
// touched segments, so later callers usually find their seq already
// synced.
func (j *Journal) commit(seq uint64) error {
	j.commitMu.Lock()
	defer j.commitMu.Unlock()
	if j.synced >= seq {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	files := make([]*os.File, 0, len(j.dirtySet))
	for id := range j.dirtySet {
		ss := j.seg[id]
		if ss == nil || ss.w == nil {
			delete(j.dirtySet, id)
			continue
		}
		if err := ss.w.Flush(); err != nil {
			// Leave the study marked dirty: a later commit must retry the
			// flush rather than advance synced past buffered records.
			j.mu.Unlock()
			return fmt.Errorf("store: flushing journal: %w", err)
		}
		delete(j.dirtySet, id)
		files = append(files, ss.f)
	}
	tail := j.seq
	retired := j.retired
	j.retired = nil
	retiredDirty := j.retiredDirty
	j.retiredDirty = nil
	j.mu.Unlock()
	if !j.opts.NoSync {
		for _, f := range files {
			if err := f.Sync(); err != nil {
				return fmt.Errorf("store: fsync journal: %w", err)
			}
		}
		// Evicted handles carry flushed-but-unsynced records: they must hit
		// the disk before synced advances past them.
		for _, f := range retiredDirty {
			if err := f.Sync(); err != nil {
				return fmt.Errorf("store: fsync evicted journal segment: %w", err)
			}
		}
	}
	// Rotated-out and evicted handles are durable now; closing them here —
	// still under commitMu — cannot race another commit's fsync pass.
	for _, f := range retired {
		f.Close()
	}
	for _, f := range retiredDirty {
		f.Close()
	}
	obsFsyncBatches.Inc()
	obsFsyncBatchRecords.Observe(float64(tail - j.synced))
	j.synced = tail
	return nil
}

// Close flushes, fsyncs and closes every open segment, stops the
// background compactor, and releases the journal lock. Further operations
// return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	stop, done := j.compactStop, j.compactDone
	j.compactStop, j.compactDone = nil, nil
	var err error
	var files []*os.File
	for _, ss := range j.seg {
		if ss.w == nil {
			continue
		}
		if ferr := ss.w.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		files = append(files, ss.f)
		ss.f, ss.w = nil, nil
	}
	retired := j.retired
	j.retired = nil
	retiredDirty := j.retiredDirty
	j.retiredDirty = nil
	close(j.watch)
	j.watch = make(chan struct{})
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	// Take commitMu before touching file handles: a commit in flight may
	// still be inside its lock-free fsync pass over these same files.
	j.commitMu.Lock()
	defer j.commitMu.Unlock()
	for _, f := range files {
		if !j.opts.NoSync && err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	for _, f := range retiredDirty {
		if !j.opts.NoSync && err == nil {
			err = f.Sync()
		}
		f.Close()
	}
	for _, f := range retired {
		f.Close()
	}
	if cerr := j.lock.Close(); err == nil {
		err = cerr
	}
	return err
}

// CreateStudy persists a new study. The meta's State defaults to
// StateCreated and CreatedAt/UpdatedAt to now. The id becomes a directory
// name in the sharded layout, so it is restricted to letters, digits and
// "._-".
func (j *Journal) CreateStudy(meta StudyMeta) error {
	if meta.ID == "" {
		return fmt.Errorf("store: study needs an id")
	}
	if !validStudyID(meta.ID) {
		return fmt.Errorf("store: invalid study id %q (allowed: letters, digits, '.', '_', '-', max 128 chars)", meta.ID)
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if _, dup := j.studies[meta.ID]; dup {
		j.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrExists, meta.ID)
	}
	j.mu.Unlock()
	if meta.State == "" {
		meta.State = StateCreated
	}
	now := time.Now().UTC()
	if meta.CreatedAt.IsZero() {
		meta.CreatedAt = now
	}
	meta.UpdatedAt = now
	_, err := j.append(record{Type: recStudy, StudyID: meta.ID, Study: &meta})
	return err
}

// SetStudyState transitions a study, optionally attaching an error message
// and end-of-run summary counters.
func (j *Journal) SetStudyState(id string, state StudyState, errMsg string, sum *Summary) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if _, ok := j.studies[id]; !ok {
		j.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Unlock()
	_, err := j.append(record{Type: recState, StudyID: id, State: state, Error: errMsg, Summary: sum})
	return err
}

// GetStudy returns a study's metadata.
func (j *Journal) GetStudy(id string) (StudyMeta, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	meta, ok := j.studies[id]
	if !ok {
		return StudyMeta{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return *meta, nil
}

// ListStudies returns all studies in creation order.
func (j *Journal) ListStudies() []StudyMeta {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]StudyMeta, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, *j.studies[id])
	}
	return out
}

// ActiveStudies returns ids of studies that were queued or running — the
// set a restarting daemon re-submits.
func (j *Journal) ActiveStudies() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []string
	for _, id := range j.order {
		if j.studies[id].State.Active() {
			out = append(out, id)
		}
	}
	return out
}

// TenantEpochs sums epoch usage across a tenant's studies — the number an
// admission queue checks a MaxTotalEpochs budget against. The empty
// tenant aggregates single-tenant (registry-less) studies.
func (j *Journal) TenantEpochs(tenant string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	total := 0
	for id, meta := range j.studies {
		if meta.Tenant != tenant {
			continue
		}
		total += meta.EpochsExecuted + j.epochsLive[id]
	}
	return total
}

// AppendTrials persists finished trials for a study as one durable batch
// (single fsync pass). A trial whose id and fingerprint already have a
// successful record in this study is skipped, so resumed rounds do not
// duplicate journal entries.
func (j *Journal) AppendTrials(id string, trials []Trial) error {
	j.mu.Lock()
	if _, ok := j.studies[id]; !ok && !j.closed {
		j.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	recs := make([]record, 0, len(trials))
	batch := make(map[trialKey]bool, len(trials))
	for _, t := range trials {
		t = t.sanitize()
		t.Fingerprint = fingerprintOf(t)
		key := trialKey{t.ID, t.Fingerprint}
		if j.seenOK[id][key] || batch[key] {
			continue
		}
		if t.Succeeded() {
			batch[key] = true
		}
		tc := t
		recs = append(recs, record{Type: recTrial, StudyID: id, Trial: &tc})
	}
	j.mu.Unlock()
	_, err := j.appendBatch(recs)
	return err
}

// AppendMetric journals one intermediate per-epoch metric point of a
// running trial. Metrics are telemetry, not state: they append without a
// synchronous flush (a crash may lose the tail of the stream) so the
// per-epoch hot path — which on the remote backend runs on the transport
// read loop — never waits on an fsync. The next trial/state append or
// Close makes them durable. Compaction drops them once the study is
// terminal.
func (j *Journal) AppendMetric(id string, trialID, epoch int, value float64) error {
	if err := j.checkStudy(id); err != nil {
		return err
	}
	_, err := j.appendBatchOpts([]record{{Type: recMetric, StudyID: id,
		Metric: &MetricPoint{TrialID: trialID, Epoch: epoch, Value: finiteOr0(value)}}}, false)
	return err
}

// AppendPrune journals a pruner's decision to stop a trial mid-flight.
func (j *Journal) AppendPrune(id string, trialID, epoch int, reason string) error {
	if err := j.checkStudy(id); err != nil {
		return err
	}
	_, err := j.append(record{Type: recPrune, StudyID: id,
		Prune: &PruneDecision{TrialID: trialID, Epoch: epoch, Reason: reason}})
	return err
}

// AppendPromote journals a rung scheduler's decision to continue a trial
// past its initial budget. Promotions are durable (synchronous fsync):
// a resumed study replays them to reconstruct rung decisions without
// re-executing the finished rungs.
func (j *Journal) AppendPromote(id string, trialID, epoch, budget int, reason string) error {
	if err := j.checkStudy(id); err != nil {
		return err
	}
	_, err := j.append(record{Type: recPromote, StudyID: id,
		Promote: &Promotion{TrialID: trialID, Epoch: epoch, Budget: budget, Reason: reason}})
	return err
}

// StudyPromotes returns the rung promotions recorded for a study in append
// order (empty once compaction dropped them — the final trial records carry
// the epochs actually executed).
func (j *Journal) StudyPromotes(id string) []Promotion {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Promotion(nil), j.promotes[id]...)
}

// checkStudy verifies the study exists (without holding the lock across the
// subsequent append).
func (j *Journal) checkStudy(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if _, ok := j.studies[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return nil
}

// TrialCount returns how many trials a study has recorded, without copying
// them (progress polling hot path).
func (j *Journal) TrialCount(id string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.trials[id])
}

// StudyTrials returns all recorded trials of a study, ordered by trial id.
func (j *Journal) StudyTrials(id string) ([]Trial, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.studies[id]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	out := append([]Trial(nil), j.trials[id]...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, nil
}

// StudyRecord is one journal record of a study surfaced to read-side
// consumers — the raw material the timeline endpoints rebuild a study's
// execution history from. Exactly one payload pointer is set, per Type.
type StudyRecord struct {
	Seq     uint64         `json:"seq"`
	Type    string         `json:"type"`
	At      time.Time      `json:"at"`
	State   StudyState     `json:"state,omitempty"`
	Trial   *Trial         `json:"trial,omitempty"`
	Metric  *MetricPoint   `json:"metric,omitempty"`
	Prune   *PruneDecision `json:"prune,omitempty"`
	Promote *Promotion     `json:"promote,omitempty"`
}

// StudyRecords reads every live journal record of one study straight from
// its on-disk segments, in sequence order. Unlike the in-memory index —
// which drops terminal studies' metric and promotion telemetry at boot —
// this returns exactly what the journal holds, so a timeline rebuilt from
// it is a pure function of the durable record stream: identical until
// compaction rewrites the study (after which only the summary records
// remain). The study's buffered writer is flushed first, so records just
// appended are visible.
func (j *Journal) StudyRecords(id string) ([]StudyRecord, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := j.studies[id]; !ok {
		j.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	ss := j.seg[id]
	if ss == nil {
		j.mu.Unlock()
		return nil, nil
	}
	if ss.w != nil {
		if err := ss.w.Flush(); err != nil {
			j.mu.Unlock()
			return nil, fmt.Errorf("store: flushing segment for read: %w", err)
		}
	}
	// Read under j.mu: rotation and compaction also mutate the segment
	// table under this lock, so the listed files cannot change underneath
	// the reads (a study's live segments are small by construction).
	recs, _, _, err := readStudySegments(studyDir(j.dir, id), ss.nums)
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return studyRecords(recs), nil
}

// readStudySegments reads the listed segments of one study directory and
// returns their records in sequence order, plus the intact byte length of
// the active (last listed) segment and whether a torn tail follows it.
// Only the active segment may carry a torn tail — a crashed append — or be
// missing: listed but never created, a crash between the manifest commit
// and the first write. Sealed segments were fsynced before their manifest
// commit, so a missing one is lost acknowledged data: ErrCorrupt.
func readStudySegments(dir string, nums []int) (recs []record, size int64, torn bool, err error) {
	for i, n := range nums {
		active := i == len(nums)-1
		path := filepath.Join(dir, segmentFileName(n))
		raw, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			if active {
				continue
			}
			return nil, 0, false, fmt.Errorf("%w: sealed segment missing: %s", ErrCorrupt, path)
		}
		if err != nil {
			return nil, 0, false, fmt.Errorf("store: reading segment: %w", err)
		}
		rs, good, err := parseSegment(raw, path, active)
		if err != nil {
			return nil, 0, false, err
		}
		if active {
			size, torn = int64(good), good < len(raw)
		}
		recs = append(recs, rs...)
	}
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq })
	return recs, size, torn, nil
}

// studyRecords converts raw journal records to the StudyRecord stream,
// dropping state records that carry no state.
func studyRecords(recs []record) []StudyRecord {
	out := make([]StudyRecord, 0, len(recs))
	for _, rec := range recs {
		if rec.Type == recState && rec.State == "" {
			continue
		}
		sr := StudyRecord{Seq: rec.Seq, Type: rec.Type, At: rec.At, State: rec.State,
			Metric: rec.Metric, Prune: rec.Prune, Promote: rec.Promote}
		if rec.Type == recStudy && rec.Study != nil {
			sr.State = rec.Study.State
		}
		if rec.Trial != nil {
			t := decodeTrialHistory(*rec.Trial)
			t.Config = NormaliseConfig(t.Config)
			sr.Trial = &t
		}
		out = append(out, sr)
	}
	return out
}

// LookupMemo returns the first successful trial recorded for a config
// fingerprint within an objective scope, across all studies. Scopes must
// match exactly — results from a different dataset, sample count or model
// never answer a lookup.
func (j *Journal) LookupMemo(scope, fingerprint string) (Trial, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	t, ok := j.memo[memoKey(scope, fingerprint)]
	return t, ok
}

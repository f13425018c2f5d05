package store

import "sort"

// eventWindow is the per-study in-memory event window that feeds SSE
// resume: the last cap events of the study, in seq order. Metric events,
// the bulk of a study's stream, are packed into a pointer-free ring of
// metricEntry; every other event, and any metric whose trial id or epoch
// does not fit an entry, is kept whole in side. The two merge by seq, which
// the journal issues in increasing order. dropped remembers the highest
// sequence number evicted from the window, which is the boundary below
// which EventsSince must synthesize a snapshot instead of replaying.
type eventWindow struct {
	study   string        // StudyID of every event in the window
	ring    []metricEntry // circular; len(ring) is its allocated size
	head    int           // ring index of the oldest entry
	n       int           // entries in the ring
	side    []Event       // non-metric and unpackable events, oldest first
	cap     int           // 0 = unbounded
	dropped uint64
}

// metricEntry is one retained metric event. It holds no pointer, so a ring
// of them is a single allocation the GC never scans.
type metricEntry struct {
	seq   uint64
	value float64
	trial int32
	epoch int32
}

// minRing is the ring's first allocation.
const minRing = 16

// len reports how many events the window retains.
func (w *eventWindow) len() int { return w.n + len(w.side) }

// at returns the k-th oldest ring entry.
func (w *eventWindow) at(k int) *metricEntry {
	i := w.head + k
	if i >= len(w.ring) {
		i -= len(w.ring)
	}
	return &w.ring[i]
}

// push appends a non-metric event, evicting the oldest once the window is
// full.
func (w *eventWindow) push(ev Event) {
	w.makeRoom()
	w.side = append(w.side, ev)
}

// pushMetric appends a metric event, packed into the ring when its trial
// id and epoch fit an entry.
func (w *eventWindow) pushMetric(seq uint64, m *MetricPoint) {
	if int(int32(m.TrialID)) != m.TrialID || int(int32(m.Epoch)) != m.Epoch {
		mp := *m
		w.push(Event{Seq: seq, Type: recMetric, StudyID: w.study, Metric: &mp})
		return
	}
	w.makeRoom()
	if w.n == len(w.ring) {
		w.grow()
	}
	w.n++
	*w.at(w.n - 1) = metricEntry{seq: seq, value: m.Value, trial: int32(m.TrialID), epoch: int32(m.Epoch)}
}

// makeRoom evicts the oldest retained event when a bounded window is full.
func (w *eventWindow) makeRoom() {
	if w.cap <= 0 || w.len() < w.cap {
		return
	}
	if len(w.side) > 0 && (w.n == 0 || w.side[0].Seq < w.at(0).seq) {
		w.dropped = w.side[0].Seq
		w.side[0] = Event{}
		w.side = w.side[1:]
	} else {
		w.dropped = w.at(0).seq
		w.head++
		if w.head == len(w.ring) {
			w.head = 0
		}
		w.n--
	}
	obsWindowEvictions.Inc()
}

// grow doubles the ring, up to the window's capacity.
func (w *eventWindow) grow() {
	size := max(2*len(w.ring), minRing)
	if w.cap > 0 {
		size = min(size, w.cap)
	}
	w.resize(size)
}

// resize moves the ring's entries, oldest first, into a ring of size.
func (w *eventWindow) resize(size int) {
	ring := make([]metricEntry, size)
	for k := 0; k < w.n; k++ {
		ring[k] = *w.at(k)
	}
	w.ring, w.head = ring, 0
}

// trim releases a finished study's spare capacity: a ring that is not full
// shrinks to its entries. A re-started study grows it again.
func (w *eventWindow) trim() {
	if w.n < len(w.ring) {
		w.resize(w.n)
	}
	if cap(w.side) > len(w.side) {
		w.side = append([]Event(nil), w.side...)
	}
}

// since returns retained events with sequence numbers greater than s,
// oldest first. Both halves are in seq order, so each start is a binary
// search.
func (w *eventWindow) since(s uint64) []Event {
	r := sort.Search(w.n, func(k int) bool { return w.at(k).seq > s })
	e := sort.Search(len(w.side), func(k int) bool { return w.side[k].Seq > s })
	if r == w.n && e == len(w.side) {
		return nil
	}
	out := make([]Event, 0, w.n-r+len(w.side)-e)
	// One allocation for every metric; its exact capacity keeps the
	// pointers into it valid.
	points := make([]MetricPoint, 0, w.n-r)
	for r < w.n || e < len(w.side) {
		if e < len(w.side) && (r == w.n || w.side[e].Seq < w.at(r).seq) {
			out = append(out, w.side[e])
			e++
			continue
		}
		m := w.at(r)
		points = append(points, MetricPoint{TrialID: int(m.trial), Epoch: int(m.epoch), Value: m.value})
		out = append(out, Event{Seq: m.seq, Type: recMetric, StudyID: w.study, Metric: &points[len(points)-1]})
		r++
	}
	return out
}

// windowFor returns the study's window for an event at seq, creating it on
// first use. A terminal study whose window was evicted (boot replay,
// compaction) never grows one back — its resume view is the index
// snapshot — so the result may be nil. Callers must hold j.mu.
func (j *Journal) windowFor(id string, seq uint64) *eventWindow {
	w := j.windows[id]
	if w == nil {
		if meta := j.studies[id]; meta != nil && meta.State.Terminal() {
			return nil
		}
		w = &eventWindow{study: id, cap: j.retain}
		if len(j.trials[id]) > 0 && seq > 0 {
			// The window is being recreated mid-life — a terminal study
			// whose window was evicted is being re-started. Everything
			// before this event counts as evicted, so a resume below it
			// serves the index snapshot instead of a silent gap.
			w.dropped = seq - 1
		}
		j.windows[id] = w
	}
	return w
}

// pushEvent appends a non-metric event to its study's window. Callers must
// hold j.mu.
func (j *Journal) pushEvent(ev Event) {
	if w := j.windowFor(ev.StudyID, ev.Seq); w != nil {
		w.push(ev)
	}
}

// EventsSince returns journal events with sequence numbers greater than
// since, filtered to one study when id is non-empty, plus the current tail
// sequence (the resume point for the next call).
//
// Events are served from a bounded per-study window (JournalOptions.
// RetainEvents), so a resume point may have aged out. In that case the gap
// cannot be replayed verbatim; instead the call returns a snapshot-then-
// tail view: synthesized events reconstructing the study's current state
// from the index — one "study" event carrying the live state, then one
// "trial" event per recorded trial, all marked Snapshot and stamped with
// the eviction-boundary sequence — followed by the retained tail. Sequence
// numbers remain non-decreasing across the response, and a resume at
// exactly the boundary seq re-serves the whole (idempotent) snapshot, so a
// client that disconnects mid-snapshot cannot strand itself. Clients lose
// only per-epoch metric points older than the window, which compaction
// drops from disk anyway.
func (j *Journal) EventsSince(id string, since uint64) ([]Event, uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	if id != "" {
		out = j.eventsSinceLocked(id, since)
	} else {
		for _, sid := range j.order {
			out = append(out, j.eventsSinceLocked(sid, since)...)
		}
		sort.SliceStable(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	}
	return out, j.seq
}

// eventsSinceLocked serves one study's events, synthesizing the snapshot
// when since predates the retention window — or the whole view, for a
// terminal study whose window was evicted entirely. Callers must hold j.mu.
func (j *Journal) eventsSinceLocked(id string, since uint64) []Event {
	w := j.windows[id]
	if w == nil {
		// Windowless study (terminal, evicted at boot replay or by
		// compaction): the resume view is a pure snapshot stamped with the
		// study's last journaled seq. A client already at (or past) that
		// seq has converged.
		meta := j.studies[id]
		if meta == nil {
			return nil
		}
		var boundary uint64
		if ss := j.seg[id]; ss != nil {
			boundary = ss.lastSeq
		}
		if boundary == 0 || since >= boundary {
			return nil
		}
		return j.snapshotLocked(id, boundary)
	}
	// Serve the snapshot when since is at or below the eviction boundary:
	// snapshot events are all stamped with the boundary seq, so a client
	// that disconnects mid-snapshot resumes at exactly that seq and must
	// receive the (idempotent) snapshot again rather than a tail missing
	// the trial events it never saw.
	if w.dropped == 0 || since > w.dropped {
		return w.since(since)
	}
	if j.studies[id] == nil {
		return w.since(since)
	}
	// Everything retained is newer than the eviction boundary, so sequence
	// numbers stay non-decreasing after the snapshot.
	return append(j.snapshotLocked(id, w.dropped), w.since(w.dropped)...)
}

// snapshotLocked synthesizes a study's resume snapshot from the index: one
// study event carrying the live state, then one trial event per recorded
// trial, all marked Snapshot and stamped with the boundary seq. Callers
// must hold j.mu and have checked the study exists.
func (j *Journal) snapshotLocked(id string, boundary uint64) []Event {
	meta := j.studies[id]
	out := []Event{{Seq: boundary, Type: recStudy, StudyID: id, State: meta.State, Error: meta.Error, Snapshot: true}}
	trials := append([]Trial(nil), j.trials[id]...)
	sort.SliceStable(trials, func(a, b int) bool { return trials[a].ID < trials[b].ID })
	for i := range trials {
		out = append(out, Event{Seq: boundary, Type: recTrial, StudyID: id, Trial: &trials[i], Snapshot: true})
	}
	return out
}

// Watch returns a channel closed on the next journal append (a broadcast
// tick). Callers re-invoke EventsSince after each tick.
func (j *Journal) Watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.watch
}

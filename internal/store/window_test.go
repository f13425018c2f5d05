package store

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

// naiveWindow is the reference model for eventWindow: every retained event
// whole, oldest first, and the seq of the last one evicted.
type naiveWindow struct {
	evs     []Event
	cap     int // 0 = unbounded
	dropped uint64
}

func (w *naiveWindow) push(ev Event) {
	w.evs = append(w.evs, ev)
	if w.cap > 0 && len(w.evs) > w.cap {
		w.dropped = w.evs[0].Seq
		w.evs = w.evs[1:]
	}
}

func (w *naiveWindow) since(s uint64) []Event {
	var out []Event
	for _, ev := range w.evs {
		if ev.Seq > s {
			out = append(out, ev)
		}
	}
	return out
}

// windowModel mirrors a Journal's windows with naive ones. The journal
// decides when a window exists; the model holds what it must contain.
type windowModel struct {
	wins map[string]*naiveWindow
}

// observe pushes the event apply made of rec into the model, after the
// journal has applied it.
func (m *windowModel) observe(j *Journal, rec record) {
	id := rec.StudyID
	if j.windows[id] == nil {
		delete(m.wins, id)
		return
	}
	w := m.wins[id]
	if w == nil {
		w = &naiveWindow{cap: j.retain}
		if len(j.trials[id]) > 0 && rec.Seq > 0 {
			w.dropped = rec.Seq - 1
		}
		m.wins[id] = w
	}
	ev := Event{Seq: rec.Seq, Type: rec.Type, StudyID: id}
	switch rec.Type {
	case recStudy:
		ev.State = j.studies[id].State
	case recState:
		ev.State, ev.Error = rec.State, rec.Error
	case recTrial:
		tc := j.trials[id][len(j.trials[id])-1]
		ev.Trial = &tc
	case recMetric:
		mp := *rec.Metric
		ev.Metric = &mp
	case recPrune:
		p := *rec.Prune
		ev.Prune = &p
	case recPromote:
		p := *rec.Promote
		ev.Promote = &p
	}
	w.push(ev)
}

// eventsSince is EventsSince over the model's windows: the same snapshot
// and boundary rules, the naive ring underneath.
func (m *windowModel) eventsSince(j *Journal, id string, since uint64) []Event {
	if id == "" {
		var out []Event
		for _, sid := range j.order {
			out = append(out, m.eventsSince(j, sid, since)...)
		}
		sort.SliceStable(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
		return out
	}
	w := m.wins[id]
	if w == nil {
		if j.studies[id] == nil {
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
	if w.dropped == 0 || since > w.dropped || j.studies[id] == nil {
		return w.since(since)
	}
	return append(j.snapshotLocked(id, w.dropped), w.since(w.dropped)...)
}

// packLimits are trial ids and epochs on both sides of a packed entry's
// int32 fields.
var packLimits = []int{0, 1, 7, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64}

// newIndexJournal is a Journal with an index and no files: records reach it
// through apply, as they do after an append.
func newIndexJournal(retain int) *Journal {
	return &Journal{
		retain:     resolveRetain(retain),
		studies:    make(map[string]*StudyMeta),
		trials:     make(map[string][]Trial),
		seenOK:     make(map[string]map[trialKey]bool),
		memo:       make(map[string]Trial),
		promotes:   make(map[string][]Promotion),
		epochsLive: make(map[string]int),
		seg:        make(map[string]*studySegments),
		windows:    make(map[string]*eventWindow),
	}
}

// FuzzEventWindow drives the packed window and the naive model with one
// record stream, the way appends reach apply: mixed record types, trial
// ids and epochs at the packing limits, terminal trims, windows evicted
// as compaction does and re-grown by a re-start. After every step the two
// must serve equal EventsSince slices from every resume point.
func FuzzEventWindow(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 3, 0, 4, 1, 2, 5, 3, 4, 7, 0, 8, 2, 2, 0, 1, 0, 4, 4, 0})
	f.Add(byte(1), []byte{0, 0, 4, 0, 0, 4, 0, 1, 7, 1, 4, 3, 0, 2, 0, 4, 0, 2})
	f.Add(byte(3), []byte{0, 0, 0, 1, 3, 0, 4, 3, 4, 4, 4, 5, 4, 6, 4, 7, 4, 8, 2, 0, 9, 0, 1, 0, 4, 2, 4, 1})
	f.Add(byte(8), []byte{0, 0, 3, 0, 3, 1, 4, 0, 4, 1, 8, 0, 4, 2, 7, 1, 2, 0, 1, 0, 4, 3, 2, 0})
	f.Add(byte(5), []byte{0, 0, 0, 1, 4, 0, 4, 1, 3, 0, 4, 2, 4, 3, 2, 0, 9, 0, 1, 0, 4, 4, 4, 5, 4, 6, 4, 7})
	f.Fuzz(func(t *testing.T, retain byte, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		r := int(retain % 9) // 1..8, or 0 for unbounded
		if r == 0 {
			r = -1
		}
		j := newIndexJournal(r)
		m := &windowModel{wins: make(map[string]*naiveWindow)}
		studies := []string{"a", "b"}
		terminal := []StudyState{StateDone, StateFailed, StateCanceled}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := int(ops[0])
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 {
			op, id := next()%10, studies[next()%2]
			if op != 0 && j.studies[id] == nil {
				continue // appends to an unknown study fail with ErrNotFound
			}
			if op == 9 {
				// Compaction's in-memory half: a terminal study's window
				// goes, and a re-start grows a fresh one.
				if meta := j.studies[id]; meta != nil && meta.State.Terminal() {
					delete(j.windows, id)
					delete(m.wins, id)
				}
				continue
			}
			rec := record{StudyID: id}
			switch op {
			case 0:
				rec.Type, rec.Study = recStudy, &StudyMeta{ID: id}
			case 1:
				rec.Type, rec.State = recState, StateRunning
			case 2:
				rec.Type, rec.State, rec.Error = recState, terminal[next()%3], "e"
			case 3:
				tr := mkTrial(next()%4, 2, 0.5)
				rec.Type, rec.Trial = recTrial, &tr
			case 4, 5, 6:
				rec.Type = recMetric
				rec.Metric = &MetricPoint{TrialID: packLimits[next()%len(packLimits)],
					Epoch: packLimits[next()%len(packLimits)], Value: float64(next()) / 7}
			case 7:
				rec.Type, rec.Prune = recPrune, &PruneDecision{TrialID: next(), Epoch: next(), Reason: "p"}
			case 8:
				rec.Type, rec.Promote = recPromote, &Promotion{TrialID: next(), Epoch: next(), Budget: 9, Reason: "q"}
			}
			j.seq++
			rec.Seq = j.seq
			if j.seg[id] == nil {
				j.seg[id] = &studySegments{}
			}
			j.seg[id].lastSeq = rec.Seq
			j.apply(rec)
			m.observe(j, rec)
			for _, sid := range []string{"", "a", "b"} {
				for s := uint64(0); s <= j.seq+1; s++ {
					got, tail := j.EventsSince(sid, s)
					if want := m.eventsSince(j, sid, s); !reflect.DeepEqual(got, want) {
						t.Fatalf("retain %d, study %q, since %d after seq %d:\n got %s\nwant %s",
							r, sid, s, rec.Seq, fmtEvents(got), fmtEvents(want))
					}
					if tail != j.seq {
						t.Fatalf("tail %d, want %d", tail, j.seq)
					}
				}
			}
			for sid, w := range j.windows {
				if mw := m.wins[sid]; mw == nil || w.len() != len(mw.evs) || w.dropped != mw.dropped {
					t.Fatalf("study %q: window holds %d events (dropped %d), model %+v", sid, w.len(), w.dropped, mw)
				}
			}
		}
	})
}

// fmtEvents renders events with their payloads for a failure message.
func fmtEvents(evs []Event) string {
	out := ""
	for _, ev := range evs {
		out += fmt.Sprintf("\n  %s seq=%d snapshot=%v", ev.Type, ev.Seq, ev.Snapshot)
		if ev.Metric != nil {
			out += fmt.Sprintf(" metric=%+v", *ev.Metric)
		}
	}
	return out
}

// TestMetricEntryIsPacked pins the ring entry's layout: at most 32 bytes and
// no field the GC must scan.
func TestMetricEntryIsPacked(t *testing.T) {
	typ := reflect.TypeOf(metricEntry{})
	if typ.Size() > 32 {
		t.Fatalf("metricEntry is %d bytes, want <= 32", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Fatalf("metricEntry.%s is a %s, which the GC scans", f.Name, f.Type)
		}
	}
}

// TestWindowMetricAppendAllocatesNothing: once a window is full, a metric
// append evicts the oldest entry and reuses its slot.
func TestWindowMetricAppendAllocatesNothing(t *testing.T) {
	w := &eventWindow{study: "s", cap: 64}
	w.push(Event{Seq: 1, Type: recStudy, StudyID: "s"})
	seq := uint64(1)
	m := &MetricPoint{TrialID: 3, Epoch: 5, Value: 0.5}
	for w.len() < w.cap {
		seq++
		w.pushMetric(seq, m)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		w.pushMetric(seq, m)
	})
	if allocs != 0 {
		t.Fatalf("a metric append into a full window allocates %.1f times", allocs)
	}
	if w.len() != w.cap || w.dropped != seq-uint64(w.cap) {
		t.Fatalf("window holds %d events, dropped %d; want %d and %d", w.len(), w.dropped, w.cap, seq-uint64(w.cap))
	}
}

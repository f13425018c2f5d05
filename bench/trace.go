package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness: a client-side HTTP
// call, an SSE stream, a probe call, or an interval derived afterwards from
// journal `at` stamps and /timeline rows. Times are nanoseconds since the
// tracer's epoch. Spans of one study share Study.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Study  string `json:"study,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory and writes them out once at the end of the
// pass. A nil *tracer is the tracing-off state: every method is a no-op,
// so the untraced pass pays one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name, study string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Study: study, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an interval known after the fact (journal stamps, timeline
// rows) and returns its id.
func (t *tracer) add(name, study string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Study: study,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
	return id
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes fills each span's Self: its duration minus the part of that
// interval its direct children cover (overlapping children are counted
// once, and a child is clipped to its parent).
func selfTimes(spans []span) {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self = p.End - p.Start - covered
	}
}

// write computes self times and stores the trace as one JSON document with
// a per-name summary (count, total and self time) ahead of the spans.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	type agg struct {
		Count   int   `json:"count"`
		TotalNS int64 `json:"total_ns"`
		SelfNS  int64 `json:"self_ns"`
	}
	byName := map[string]*agg{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.Count++
		a.TotalNS += s.End - s.Start
		a.SelfNS += s.Self
	}
	raw, err := json.Marshal(map[string]interface{}{
		"epoch": t.epoch.UTC().Format(time.RFC3339Nano), "summary": byName, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

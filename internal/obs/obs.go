// Package obs is the dependency-free metrics layer behind hpod's
// GET /metrics: a process-global registry of counters, gauges and
// histograms rendered in the Prometheus text exposition format. The hot
// paths it instruments (journal appends, task placement, per-epoch
// reports) pre-resolve their series handles at package init, so recording
// a sample is one atomic operation — no map lookups, no allocation, no
// locks on the counter path.
//
// The registry is deliberately small: fixed label sets declared at
// registration, no timestamps, no exemplars. docs/OBSERVABILITY.md is the
// normative metric-name registry; a test (and the CI docs check) pins it
// to the registered metric families.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric kinds, matching the Prometheus TYPE line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Registry holds metric families and scrape hooks. The zero value is not
// usable; create with NewRegistry or use the process-wide Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    map[string]func()
}

// NewRegistry returns an empty registry (tests; production code uses
// Default so every package lands in the one exposition).
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		hooks:    make(map[string]func()),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that GET /metrics exposes.
func Default() *Registry { return defaultRegistry }

// family is one metric name: its metadata and every label combination
// observed so far.
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	bounds []float64 // histogram bucket upper bounds, ascending

	mu     sync.Mutex
	series map[string]*series
}

// series is one label combination's live value.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
}

// Counter is a monotonically increasing uint64. All methods are safe for
// concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down. All methods are safe for
// concurrent use and lock-free.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets (cumulative on
// exposition, like Prometheus). Safe for concurrent use.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is the +Inf overflow
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// ObserveSince records the seconds elapsed since t0 — the one-liner for
// latency instrumentation.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// DurationBuckets returns the default latency bucket bounds in seconds,
// spanning ~25µs to 10s.
func DurationBuckets() []float64 {
	return []float64{0.000025, 0.0001, 0.00025, 0.001, 0.0025, 0.01, 0.025, 0.1, 0.25, 1, 2.5, 10}
}

// CountBuckets returns power-of-two bucket bounds 1, 2, 4 … up to max —
// the natural shape for batch sizes and queue depths.
func CountBuckets(max int) []float64 {
	var out []float64
	for b := 1; b <= max; b *= 2 {
		out = append(out, float64(b))
	}
	return out
}

// family looks a name up or registers it, enforcing that re-registration
// carries identical metadata — two packages claiming one name with
// different shapes is a programming error worth a panic at init.
func (r *Registry) family(name, help, kind string, labels []string, bounds []float64) *family {
	if name == "" || !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validMetricName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// get resolves one label combination to its series, creating it on first
// use.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.series[key]; s != nil {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.histogram = &Histogram{
			bounds: f.bounds,
			counts: make([]uint64, len(f.bounds)+1),
		}
	}
	f.series[key] = s
	return s
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).get(nil).counter
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).get(nil).gauge
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, kindHistogram, nil, bounds).get(nil).histogram
}

// CounterVec registers a counter family with labels; resolve series with
// With.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// GaugeVec registers a gauge family with labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// HistogramVec registers a histogram family with labels.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, labels, bounds)}
}

// CounterVec resolves label values to counters. Hot paths call With once
// and keep the handle.
type CounterVec struct{ f *family }

// With returns the counter for one label combination.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).counter }

// GaugeVec resolves label values to gauges.
type GaugeVec struct{ f *family }

// With returns the gauge for one label combination.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).gauge }

// HistogramVec resolves label values to histograms.
type HistogramVec struct{ f *family }

// With returns the histogram for one label combination.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).histogram }

// OnScrape installs a hook run before every exposition — the place to
// refresh scrape-time gauges (journal segment counts, studies by state)
// that would be wasteful to maintain on the hot path. Hooks are keyed so a
// re-created owner (a test server) replaces its predecessor instead of
// accumulating.
func (r *Registry) OnScrape(key string, fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fn == nil {
		delete(r.hooks, key)
		return
	}
	r.hooks[key] = fn
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families sorted by
// name, series sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := make([]func(), 0, len(r.hooks))
	keys := make([]string, 0, len(r.hooks))
	for k := range r.hooks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		hooks = append(hooks, r.hooks[k])
	}
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// write renders one family.
func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sers := make([]*series, 0, len(keys))
	for _, k := range keys {
		sers = append(sers, f.series[k])
	}
	f.mu.Unlock()
	for _, s := range sers {
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, s.labelValues, "", ""), s.counter.Value())
		case kindGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""), formatFloat(s.gauge.Value()))
		case kindHistogram:
			h := s.histogram
			h.mu.Lock()
			counts := append([]uint64(nil), h.counts...)
			sum, count := h.sum, h.count
			h.mu.Unlock()
			cum := uint64(0)
			for i, bound := range h.bounds {
				cum += counts[i]
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelValues, "le", formatFloat(bound)), cum)
			}
			cum += counts[len(h.bounds)]
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelValues, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""), formatFloat(sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelValues, "", ""), count)
		}
	}
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram "le" bound); empty label sets render as nothing.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus parsers expect.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// validMetricName checks the Prometheus name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return len(s) > 0
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

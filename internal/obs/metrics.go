// Package obs is the observability substrate: a dependency-free
// Prometheus-text-format metric registry, pooled per-query trace spans, and
// a bounded ring of recent query records shaped for the future online
// view-selection loop.
//
// The package imports nothing outside the standard library so every layer
// (persist, engine, server) can hold metric handles without import cycles.
// Every handle method is nil-receiver safe: un-instrumented paths
// (-obs=off, direct library use) pay a single nil check and no allocation.
package obs

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name/value pair attached to a metric series. Label values
// must be low-cardinality (view IDs, endpoint paths, outcome enums) — never
// query text or user input.
type Label struct {
	Key   string
	Value string
}

// LatencyBuckets are the default histogram bounds for request and operation
// latencies, in seconds: 100µs to 10s, roughly log-spaced.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing integer counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative deltas are dropped (counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Observations are lock-free; each
// falls into the first bucket whose upper bound is >= the value (Prometheus
// `le` semantics), or the implicit +Inf bucket.
type Histogram struct {
	upper  []float64       // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(upper)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first upper >= v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // CounterFunc/GaugeFunc
}

type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	buckets []float64
	funcs   bool // series backed by callbacks

	mu    sync.Mutex
	order []*series
	byKey map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Handles are deduplicated by (name, label set): asking
// for the same series twice returns the same handle. A nil *Registry
// returns nil handles everywhere, so a disabled registry costs nothing.
type Registry struct {
	mu         sync.Mutex
	order      []*family
	byName     map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string, buckets []float64, funcs bool) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic("obs: metric " + name + " re-registered as " + typ + ", was " + f.typ)
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ, buckets: buckets, funcs: funcs,
		byKey: make(map[string]*series),
	}
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(0xff)
		b.WriteString(l.Value)
		b.WriteByte(0xfe)
	}
	return b.String()
}

// series returns the series for labels, creating it on first use. init
// fills a new series' value under the family lock, before any scrape or
// concurrent lookup can see it.
func (f *family) series(labels []Label, init func(*series)) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...)}
	init(s)
	f.byKey[key] = s
	f.order = append(f.order, s)
	return s
}

// Counter returns the counter series for name + labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, "counter", nil, false)
	return f.series(labels, func(s *series) { s.c = new(Counter) }).c
}

// Gauge returns the gauge series for name + labels, creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, "gauge", nil, false)
	return f.series(labels, func(s *series) { s.g = new(Gauge) }).g
}

// Histogram returns the histogram series for name + labels. buckets are
// ascending upper bounds (the +Inf bucket is implicit); nil means
// LatencyBuckets. All series of one family share the first registration's
// buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = LatencyBuckets
	}
	f := r.family(name, help, "histogram", buckets, false)
	return f.series(labels, func(s *series) {
		s.h = &Histogram{upper: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}).h
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — for sources that already keep their own monotonic atomics.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	f := r.family(name, help, "counter", nil, true)
	f.series(labels, func(s *series) { s.fn = fn })
}

// GaugeFunc registers a gauge series whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	f := r.family(name, help, "gauge", nil, true)
	f.series(labels, func(s *series) { s.fn = fn })
}

// OnCollect registers a hook run at the start of every scrape, before
// rendering — the place to refresh gauges whose label sets are dynamic
// (e.g. per-view series that appear as views are materialized).
func (r *Registry) OnCollect(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4). Collector hooks run
// first; rendering reads only atomics and short-held registry locks, so a
// scrape never blocks queries or updates.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	cols := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range cols {
		fn()
	}
	r.mu.Lock()
	fams := append([]*family{}, r.order...)
	r.mu.Unlock()
	var b bytes.Buffer
	for _, f := range fams {
		f.write(&b)
	}
	_, err := w.Write(b.Bytes())
	return err
}

// Handler serves WritePrometheus over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

func (f *family) write(b *bytes.Buffer) {
	f.mu.Lock()
	ss := append([]*series{}, f.order...)
	f.mu.Unlock()
	if len(ss) == 0 {
		return
	}
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteString("\n# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.typ)
	b.WriteByte('\n')
	for _, s := range ss {
		if f.typ == "histogram" {
			writeHistogram(b, f.name, s.labels, s.h)
			continue
		}
		var v float64
		switch {
		case s.fn != nil:
			v = s.fn()
		case s.c != nil:
			v = float64(s.c.Value())
		case s.g != nil:
			v = s.g.Value()
		}
		writeSample(b, f.name, s.labels, nil, v)
	}
}

func writeHistogram(b *bytes.Buffer, name string, labels []Label, h *Histogram) {
	var cum uint64
	for i, upper := range h.upper {
		cum += h.counts[i].Load()
		le := Label{"le", formatFloat(upper)}
		writeSample(b, name+"_bucket", labels, &le, float64(cum))
	}
	cum += h.counts[len(h.upper)].Load()
	le := Label{"le", "+Inf"}
	writeSample(b, name+"_bucket", labels, &le, float64(cum))
	writeSample(b, name+"_sum", labels, nil, math.Float64frombits(h.sum.Load()))
	writeSample(b, name+"_count", labels, nil, float64(cum))
}

func writeSample(b *bytes.Buffer, name string, labels []Label, extra *Label, v float64) {
	b.WriteString(name)
	if len(labels) > 0 || extra != nil {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			writeLabel(b, l)
		}
		if extra != nil {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			writeLabel(b, *extra)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func writeLabel(b *bytes.Buffer, l Label) {
	b.WriteString(l.Key)
	b.WriteString(`="`)
	for _, r := range l.Value {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

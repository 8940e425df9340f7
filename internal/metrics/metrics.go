// Package metrics is the observability layer of the system: lock-free
// counter/gauge/histogram primitives, a registry that names them, and
// Prometheus text exposition (format 0.0.4) served by the gateway's
// GET /metrics and ditsserve's -metrics-addr.
//
// The primitives are designed for hot paths:
//
//   - Counter and Gauge are single atomics whose zero value is ready to
//     use, so long-lived structs (transport.Metrics, the result cache)
//     embed them directly instead of guarding plain ints with a mutex.
//   - Histogram observes into atomic bucket counters — no lock, no
//     allocation — and reports approximate quantiles by interpolating
//     within the owning bucket.
//   - The *Vec variants add one label dimension (method, source,
//     endpoint) behind an RWMutex that is only write-locked the first
//     time a label value appears.
//
// Instruments are usable unregistered; a Registry merely attaches names
// and help text for exposition. All methods are safe for concurrent use
// and safe on nil receivers (a nil instrument is a no-op sink), so
// optional metrics never need nil checks on the hot path.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use; all methods are nil-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter (benchmark harnesses reuse instruments between
// runs; exposition never resets).
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Gauge is an int64 that can go up and down. The zero value is ready to
// use; all methods are nil-safe.
type Gauge struct{ v atomic.Int64 }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefLatencyBuckets are the exposition buckets for request latencies, in
// seconds: log-spaced from 100µs to ~100s, covering cached sub-millisecond
// hits through shed/deadline tails.
func DefLatencyBuckets() []float64 {
	out := make([]float64, 0, 21)
	for v := 1e-4; v < 150; v *= 2 {
		out = append(out, v)
	}
	return out
}

// Histogram counts observations into fixed buckets. Create with
// NewHistogram; the nil histogram discards observations.
type Histogram struct {
	bounds []float64 // ascending upper bounds; implicit +Inf last
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram creates a histogram over the given ascending bucket upper
// bounds (an implicit +Inf bucket is appended). Explicit +Inf and NaN
// bounds are dropped — +Inf is always implicit, so keeping one would emit
// a duplicate le="+Inf" series — and duplicate bounds collapse to one.
func NewHistogram(bounds []float64) *Histogram {
	b := slices.Clone(bounds)
	b = slices.DeleteFunc(b, func(v float64) bool { return math.IsInf(v, +1) || math.IsNaN(v) })
	slices.Sort(b)
	b = slices.Compact(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns aligned (cumulative bucket counts, bounds) for
// exposition.
func (h *Histogram) snapshot() (bounds []float64, cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var c int64
	for i := range h.counts {
		c += h.counts[i].Load()
		cum[i] = c
	}
	return h.bounds, cum, h.count.Load(), h.Sum()
}

// CounterVec is a family of Counters distinguished by one label value.
// The zero value is ready to use; all methods are nil-safe.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// With returns the counter for the label value, creating it on first use.
func (v *CounterVec) With(label string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.m[label]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = make(map[string]*Counter)
	}
	if c = v.m[label]; c == nil {
		c = &Counter{}
		v.m[label] = c
	}
	return c
}

// Snapshot returns a copy of every label's current count.
func (v *CounterVec) Snapshot() map[string]int64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Value()
	}
	return out
}

// Reset drops every label series.
func (v *CounterVec) Reset() {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.m = nil
	v.mu.Unlock()
}

// HistogramVec is a family of Histograms distinguished by one label
// value, sharing one set of bucket bounds.
type HistogramVec struct {
	bounds []float64
	mu     sync.RWMutex
	m      map[string]*Histogram
}

// NewHistogramVec creates a histogram family over the bucket bounds.
func NewHistogramVec(bounds []float64) *HistogramVec {
	return &HistogramVec{bounds: slices.Clone(bounds)}
}

// With returns the histogram for the label value, creating it on first
// use. Nil-safe.
func (v *HistogramVec) With(label string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	h := v.m[label]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = make(map[string]*Histogram)
	}
	if h = v.m[label]; h == nil {
		h = NewHistogram(v.bounds)
		v.m[label] = h
	}
	return h
}

// family is one registered metric family: a name, help text, a type, and
// a function emitting its current series.
type family struct {
	name, help, typ string
	collect         func(w io.Writer, name string)
}

// Registry names instruments for exposition. Registration order is
// exposition order. The zero value is ready to use.
type Registry struct {
	mu   sync.Mutex
	fams []family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(f family) {
	r.mu.Lock()
	r.fams = append(r.fams, f)
	r.mu.Unlock()
}

// RegisterCounter exposes c as a counter family.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.add(family{name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, fmtFloat(float64(c.Value())))
	}})
}

// RegisterGauge exposes g as a gauge family.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.add(family{name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, fmtFloat(float64(g.Value())))
	}})
}

// RegisterCounterFunc exposes fn's value as a counter family — the bridge
// for components that keep their own monotonic counters.
func (r *Registry) RegisterCounterFunc(name, help string, fn func() float64) {
	r.add(family{name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, fmtFloat(fn()))
	}})
}

// RegisterGaugeFunc exposes fn's value as a gauge family.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64) {
	r.add(family{name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, fmtFloat(fn()))
	}})
}

// RegisterCounterVec exposes v as a counter family labeled by label.
func (r *Registry) RegisterCounterVec(name, help, label string, v *CounterVec) {
	r.add(family{name, help, "counter", func(w io.Writer, n string) {
		snap := v.Snapshot()
		for _, k := range sortedKeys(snap) {
			fmt.Fprintf(w, "%s{%s=%s} %s\n", n, label, quoteLabel(k), fmtFloat(float64(snap[k])))
		}
	}})
}

// RegisterHistogramVec exposes v as a histogram family labeled by label.
func (r *Registry) RegisterHistogramVec(name, help, label string, v *HistogramVec) {
	r.add(family{name, help, "histogram", func(w io.Writer, n string) {
		v.mu.RLock()
		keys := make([]string, 0, len(v.m))
		for k := range v.m {
			keys = append(keys, k)
		}
		v.mu.RUnlock()
		slices.Sort(keys)
		for _, k := range keys {
			writeHistogram(w, n, label, k, v.With(k))
		}
	}})
}

// WritePrometheus writes every registered family in Prometheus text
// exposition format 0.0.4, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := slices.Clone(r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.collect(w, f.name)
	}
}

// Handler serves WritePrometheus over HTTP — the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// writeHistogram emits one labeled histogram series.
func writeHistogram(w io.Writer, name, label, labelVal string, h *Histogram) {
	bounds, cum, count, sum := h.snapshot()
	pair := label + "=" + quoteLabel(labelVal)
	for i, b := range bounds {
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, pair, fmtFloat(b), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, pair, cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, pair, fmtFloat(sum))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, pair, count)
}

// fmtFloat renders a sample value the Prometheus way: shortest exact
// representation, integers without a trailing ".0".
func fmtFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	// "1e+06"-style output is valid exposition; keep it.
	return s
}

// labelEscaper applies the text-format 0.0.4 label-value escapes — and
// ONLY those: backslash, double-quote, and newline. strconv.Quote would be
// wrong here: Go escaping mangles non-ASCII and control characters into
// \uXXXX/\xXX forms Prometheus parsers take literally.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// quoteLabel renders a label value quoted and escaped per the Prometheus
// text exposition format.
func quoteLabel(s string) string {
	return `"` + labelEscaper.Replace(s) + `"`
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

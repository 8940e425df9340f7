// Package obs is the zero-dependency tracing and structured-logging layer
// of the federation: Dapper-style traces with 128-bit IDs, per-stage spans
// recorded into a lock-free buffer, context propagation across goroutines
// and (via internal/transport's trace frames) across machines,
// and an always-on ring buffer of completed traces with slow-query capture
// (recorder.go) served at GET /debug/traces (http.go).
//
// A trace is started at the edge (the gateway's HTTP middleware), carried
// down through admission, the center's fan-out, the cluster's
// scatter/gather, and each source's executor via context.Context, and
// finished where it began. Spans record stage names from a small closed
// taxonomy (docs/OBSERVABILITY.md) so the per-stage duration histogram
// dits_trace_stage_seconds stays low-cardinality.
package obs

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier, rendered as 32 hex digits.
type TraceID [16]byte

// NewTraceID returns a random, non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	for isZero(id) {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

func isZero(id TraceID) bool { return id == TraceID{} }

// IsZero reports whether the ID is the zero (absent) trace ID.
func (id TraceID) IsZero() bool { return isZero(id) }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, false
	}
	return id, !id.IsZero()
}

// SpanID identifies one span within a trace. IDs are random so spans
// merged from remote tiers never collide with locally allocated ones.
type SpanID uint64

func newSpanID() SpanID {
	for {
		if id := SpanID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// Span is one completed stage of a trace. Start is the offset from the
// local trace anchor (never a wall-clock instant, so spans shipped across
// machines are immune to clock skew — the receiver rebases them onto its
// own anchor via Merge).
type Span struct {
	ID       SpanID
	Parent   SpanID // 0 (or the wire parent) for roots
	Name     string // stage name, e.g. "rpc:overlap.search"
	Source   string // optional peer/source/detail label
	Start    time.Duration
	Duration time.Duration
	Err      string // non-empty when the stage failed
	Remote   bool   // recorded on a remote tier and merged in
}

// maxSpans caps a trace's span buffer; a runaway query drops spans (and
// counts the drops) instead of growing without bound. inlineSpans slots
// live inside the Trace itself — almost every real trace fits there, so
// starting a trace costs one allocation; the overflow tier up to maxSpans
// is allocated only by the rare query that outgrows it.
const (
	maxSpans    = 512
	inlineSpans = 64
)

// Trace accumulates the spans of one query. Completed spans are published
// into fixed slots of atomic pointers: recording is an atomic index
// reservation plus one pointer store, so goroutines never contend, and a
// snapshot taken while a straggler goroutine (e.g. an abandoned fail-fast
// fan-out leg) is still finishing is race-free — unpublished slots simply
// read as nil.
type Trace struct {
	id     TraceID
	parent SpanID // wire parent on remote-adopted traces; 0 at the root
	start  time.Time

	n        atomic.Int32
	dropped  atomic.Int32
	spans    [inlineSpans]atomic.Pointer[Span]
	overflow atomic.Pointer[[maxSpans - inlineSpans]atomic.Pointer[Span]]
}

// NewTrace starts a trace with a fresh random ID, anchored at now.
func NewTrace() *Trace {
	return &Trace{id: NewTraceID(), start: time.Now()}
}

// Adopt continues a trace started elsewhere: spans recorded here parent
// (transitively) to the given wire parent span, and their Start offsets
// are relative to this call — the caller that shipped the context rebases
// them when they come back (Merge).
func Adopt(id TraceID, parent SpanID) *Trace {
	return &Trace{id: id, parent: parent, start: time.Now()}
}

// slot returns the publication slot for reserved index i, growing into
// the overflow tier on first use. Concurrent first-growers race one CAS;
// losers adopt the winner's array, so every index maps to one slot.
func (t *Trace) slot(i int) *atomic.Pointer[Span] {
	if i < inlineSpans {
		return &t.spans[i]
	}
	over := t.overflow.Load()
	if over == nil {
		t.overflow.CompareAndSwap(nil, new([maxSpans - inlineSpans]atomic.Pointer[Span]))
		over = t.overflow.Load()
	}
	return &over[i-inlineSpans]
}

// ID returns the trace ID.
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Offset returns the current offset from the trace anchor.
func (t *Trace) Offset() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Start returns the trace's local anchor instant.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Dropped returns how many spans were discarded because the buffer was
// full.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return int(t.dropped.Load())
}

// Record publishes one completed span. Safe for concurrent use; nil-safe.
func (t *Trace) Record(s Span) {
	if t == nil {
		return
	}
	i := int(t.n.Add(1)) - 1
	if i >= maxSpans {
		t.dropped.Add(1)
		return
	}
	t.slot(i).Store(&s)
}

// Merge rebases spans recorded on a remote tier onto this trace: base is
// the local offset at which the remote work began (the RPC span's start),
// so remote offsets — relative to the remote anchor — land in local time.
func (t *Trace) Merge(spans []Span, base time.Duration) {
	if t == nil {
		return
	}
	for _, s := range spans {
		s.Start += base
		s.Remote = true
		t.Record(s)
	}
}

// Snapshot returns the published spans, ordered by start offset.
func (t *Trace) Snapshot() []Span {
	if t == nil {
		return nil
	}
	n := int(t.n.Load())
	if n > maxSpans {
		n = maxSpans
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		if p := t.slot(i).Load(); p != nil {
			out = append(out, *p)
		}
	}
	slices.SortStableFunc(out, func(a, b Span) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		default:
			return 0
		}
	})
	return out
}

// ActiveSpan is a stage in progress. End (or EndErr) publishes it; the
// handle stays readable afterwards so the caller can ask its Duration.
// All methods are nil-safe: StartSpan on an untraced context returns a
// nil handle and the instrumented code needs no branches.
type ActiveSpan struct {
	tr       *Trace
	id       SpanID
	parent   SpanID
	name     string
	source   string
	start    time.Duration
	duration time.Duration
	err      string
}

// ID returns the span's ID (0 on a nil handle).
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetSource attaches a peer/source/detail label.
func (s *ActiveSpan) SetSource(src string) {
	if s != nil {
		s.source = src
	}
}

// Start returns the span's start offset from the trace anchor.
func (s *ActiveSpan) Start() time.Duration {
	if s == nil {
		return 0
	}
	return s.start
}

// Duration returns the span's duration once ended.
func (s *ActiveSpan) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.duration
}

// Name returns the span's stage name.
func (s *ActiveSpan) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Err returns the error text the span ended with.
func (s *ActiveSpan) Err() string {
	if s == nil {
		return ""
	}
	return s.err
}

// End publishes the span.
func (s *ActiveSpan) End() { s.EndErr(nil) }

// EndErr publishes the span, recording err's text when non-nil.
func (s *ActiveSpan) EndErr(err error) {
	if s == nil || s.tr == nil {
		return
	}
	s.duration = s.tr.Offset() - s.start
	if err != nil {
		s.err = err.Error()
	}
	s.tr.Record(Span{
		ID: s.id, Parent: s.parent, Name: s.name, Source: s.source,
		Start: s.start, Duration: s.duration, Err: s.err,
	})
	s.tr = nil // publish once; later Ends are no-ops
}

// spanCtx carries the trace and the current span through a context.
type spanCtx struct {
	tr   *Trace
	span SpanID
}

type ctxKey struct{}

// WithTrace returns a context carrying the trace; spans started from it
// parent to the trace's wire parent (0 at the root).
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, spanCtx{tr: tr, span: tr.parent})
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	return sc.tr
}

// Current returns the context's trace and current span ID (the parent any
// new span would get). A nil trace means the context is untraced.
func Current(ctx context.Context) (*Trace, SpanID) {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	return sc.tr, sc.span
}

// StartSpan opens a stage under the context's current span and returns a
// derived context under which child stages nest. On an untraced context
// it returns ctx unchanged and a nil handle whose End is a no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	if sc.tr == nil {
		return ctx, nil
	}
	s := &ActiveSpan{
		tr:     sc.tr,
		id:     newSpanID(),
		parent: sc.span,
		name:   name,
		start:  sc.tr.Offset(),
	}
	return context.WithValue(ctx, ctxKey{}, spanCtx{tr: sc.tr, span: s.id}), s
}

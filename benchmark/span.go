package main

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dits/internal/obs"
	"dits/internal/transport"
)

// spanKind is the tier boundary a span was recorded at. Kinds nest in
// this order inside one request: a client span contains hop spans (cluster
// only), which contain center-serve spans, which contain rpc spans, which
// contain source-serve spans.
type spanKind uint8

const (
	kindClient spanKind = iota // HTTP request as the load generator sees it
	kindHop                    // gateway -> center rpc (cluster stacks)
	kindCenter                 // CenterServer handler (cluster stacks)
	kindRPC                    // center -> source rpc
	kindServe                  // SourceServer handler
	numKinds
)

var kindNames = [numKinds]string{"client", "hop", "center", "rpc", "serve"}

// span is one timed call across a tier boundary. Start and End are
// nanoseconds on the recorder's monotonic clock; every span of one process
// shares that clock, so containment needs no skew correction.
type span struct {
	Trace obs.TraceID
	Kind  spanKind
	Name  string // request class (client) or wire method
	Peer  string // callee: center or source name ("" for client spans)
	Start int64
	End   int64
}

func (s span) dur() int64 { return s.End - s.Start }

// recMode says which requests the wrappers record.
type recMode int32

const (
	recOff     recMode = iota // none: the timed window
	recSampled                // two thirds of all requests: the traced window
	recAll                    // every one: direct calls of the kernel pass
)

// sampled reports whether a traced window records the request with this
// trace ID. IDs are random, so this picks two requests in three, whatever
// their class, and leaves the third untouched, side by side with them in
// time: the latency difference between the two sets is what the wrappers cost.
// Comparing two windows, or stretches of one, does not work here: the
// machine drifts by more than that between any two seconds.
func sampled(id obs.TraceID) bool { return id[len(id)-1]%3 != 0 }

// recorder keeps spans in memory until the run ends. The wrappers stay in
// the stack for the whole run; for a request they do not record they cost
// one atomic load.
type recorder struct {
	mode  atomic.Int32
	start time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.start)) }

func (r *recorder) set(m recMode) { r.mode.Store(int32(m)) }

// wants reports whether the wrappers record the request with this trace ID.
func (r *recorder) wants(id obs.TraceID) bool {
	switch recMode(r.mode.Load()) {
	case recAll:
		return true
	case recSampled:
		return sampled(id)
	}
	return false
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// tracedPeer records one span around every call through a transport.Peer
// seam, correlated by the trace the program already carries in ctx.
type tracedPeer struct {
	inner transport.Peer
	rec   *recorder
	kind  spanKind
	name  string
}

func (p *tracedPeer) Call(ctx context.Context, method string, req, resp any) error {
	tr := obs.TraceFrom(ctx)
	if tr == nil || !p.rec.wants(tr.ID()) {
		return p.inner.Call(ctx, method, req, resp)
	}
	start := p.rec.now()
	err := p.inner.Call(ctx, method, req, resp)
	p.rec.add(span{Trace: tr.ID(), Kind: p.kind, Name: method, Peer: p.name, Start: start, End: p.rec.now()})
	return err
}

func (p *tracedPeer) Close() error { return p.inner.Close() }

// WireInfo keeps GET /stats' per-peer codec report working through the
// wrapper.
func (p *tracedPeer) WireInfo() transport.WireInfo {
	if w, ok := p.inner.(transport.Wired); ok {
		return w.WireInfo()
	}
	return transport.WireInfo{}
}

// tracedHandler is the serving-side counterpart of tracedPeer.
func tracedHandler(inner transport.Handler, rec *recorder, kind spanKind, name string) transport.Handler {
	return func(ctx context.Context, codec transport.Codec, method string, body []byte) (any, error) {
		tr := obs.TraceFrom(ctx)
		if tr == nil || !rec.wants(tr.ID()) {
			return inner(ctx, codec, method, body)
		}
		start := rec.now()
		ret, err := inner(ctx, codec, method, body)
		rec.add(span{Trace: tr.ID(), Kind: kind, Name: method, Peer: name, Start: start, End: rec.now()})
		return ret, err
	}
}

// unionLen returns the total length covered by the spans' intervals,
// clipped to [lo, hi]. Overlapping and nested intervals count once.
func unionLen(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 {
	return s.dur() - unionLen(children, s.Start, s.End)
}

// breakdown splits one request's root span by the deepest tier that was
// busy at each instant: Self[k] is the time tier k held the request with
// no deeper tier active. Because a request waits for its slowest parallel
// child, this is the blocking-path attribution: the parts add up to the
// root. Stray is time deeper spans spent outside the tier above them,
// which a sound set of wrappers never produces.
type breakdown struct {
	Class string
	Root  int64
	Self  [numKinds]int64
	Stray int64
}

// decompose computes the breakdown of one request from its spans (any
// order). It reports false when the request has no client span.
func decompose(spans []span) (breakdown, bool) {
	var byKind [numKinds][]span
	for _, s := range spans {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	if len(byKind[kindClient]) != 1 {
		return breakdown{}, false
	}
	root := byKind[kindClient][0]
	b := breakdown{Class: root.Name, Root: root.dur()}
	covered := b.Root // time covered by the tier above, clipped to the root
	prev := kindClient
	for k := kindHop; k < numKinds; k++ {
		if len(byKind[k]) == 0 {
			continue
		}
		u := unionLen(byKind[k], root.Start, root.End)
		b.Self[prev] = covered - u
		b.Stray += outside(byKind[k], byKind[prev])
		covered, prev = u, k
	}
	b.Self[prev] = covered
	return b, true
}

// outside returns how much of inner's union lies outside outer's union:
// |inner ∪ outer| - |outer|.
func outside(inner, outer []span) int64 {
	const far = int64(1) << 60
	both := append(slices.Clone(inner), outer...)
	return unionLen(both, -far, far) - unionLen(outer, -far, far)
}

// groupByTrace buckets spans per request.
func groupByTrace(spans []span) map[obs.TraceID][]span {
	out := make(map[obs.TraceID][]span)
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// callPair is one rpc matched with the handler span that served it.
type callPair struct {
	Method string
	RPC    span
	Serve  span
}

// pairCalls matches each caller-side span of one request with its
// serving-side span. Calls from one request to one peer with one method
// are sequential, so the i-th rpc pairs with the i-th serve; a group whose
// counts differ (a pool retry) is skipped rather than guessed at.
func pairCalls(spans []span, caller, callee spanKind) []callPair {
	type key struct{ peer, method string }
	rpcs := make(map[key][]span)
	serves := make(map[key][]span)
	for _, s := range spans {
		switch s.Kind {
		case caller:
			rpcs[key{s.Peer, s.Name}] = append(rpcs[key{s.Peer, s.Name}], s)
		case callee:
			serves[key{s.Peer, s.Name}] = append(serves[key{s.Peer, s.Name}], s)
		}
	}
	byStart := func(a, b span) int { return cmp.Compare(a.Start, b.Start) }
	var out []callPair
	for k, rs := range rpcs {
		ss := serves[k]
		if len(ss) != len(rs) {
			continue
		}
		slices.SortFunc(rs, byStart)
		slices.SortFunc(ss, byStart)
		for i := range rs {
			out = append(out, callPair{Method: k.method, RPC: rs[i], Serve: ss[i]})
		}
	}
	return out
}

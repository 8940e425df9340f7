package main

import (
	"bytes"
	"context"
	"testing"

	"dits/internal/federation"
	"dits/internal/obs"
	"dits/internal/transport"
)

func sp(kind spanKind, start, end int64) span { return span{Kind: kind, Start: start, End: end} }

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	for _, c := range []struct {
		name   string
		spans  []span
		lo, hi int64
		want   int64
	}{
		{"empty", nil, 0, 100, 0},
		{"disjoint", []span{sp(0, 10, 20), sp(0, 30, 45)}, 0, 100, 25},
		{"overlapping", []span{sp(0, 10, 30), sp(0, 20, 40)}, 0, 100, 30},
		{"nested", []span{sp(0, 10, 50), sp(0, 20, 30), sp(0, 25, 28)}, 0, 100, 40},
		{"touching", []span{sp(0, 10, 20), sp(0, 20, 30)}, 0, 100, 20},
		{"unsorted", []span{sp(0, 60, 70), sp(0, 10, 20), sp(0, 15, 65)}, 0, 100, 60},
		{"clipped", []span{sp(0, -50, 10), sp(0, 90, 500)}, 0, 100, 20},
		{"outside", []span{sp(0, 200, 300)}, 0, 100, 0},
	} {
		if got := unionLen(c.spans, c.lo, c.hi); got != c.want {
			t.Errorf("%s: unionLen = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	parent := sp(kindRPC, 100, 200)
	kids := []span{sp(kindServe, 110, 150), sp(kindServe, 140, 170), sp(kindServe, 190, 260)}
	// Children cover 110..170 and 190..200 of the parent: 70 of its 100.
	if got := selfTime(parent, kids); got != 30 {
		t.Errorf("selfTime = %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// One OJSP through a single center: the gateway and center hold the
// request for 30, then three sources are called in parallel and the slowest
// sets the blocking time. Front self + blocking wire + blocking serve must
// be the root span.
func TestDecomposeSingleCenterIdentity(t *testing.T) {
	spans := []span{
		{Kind: kindClient, Name: "ojsp", Start: 1000, End: 2000},
		sp(kindRPC, 1300, 1700), sp(kindServe, 1350, 1650),
		sp(kindRPC, 1300, 1900), sp(kindServe, 1400, 1850), // the straggler
		sp(kindRPC, 1310, 1500), sp(kindServe, 1320, 1480),
	}
	b, ok := decompose(spans)
	if !ok {
		t.Fatal("decompose found no root")
	}
	// rpc union 1300..1900 = 600; serve union 1320..1850 = 530.
	want := [numKinds]int64{kindClient: 400, kindRPC: 70, kindServe: 530}
	if b.Self != want || b.Root != 1000 || b.Class != "ojsp" || b.Stray != 0 {
		t.Fatalf("breakdown = %+v, want self %v root 1000 stray 0", b, want)
	}
	var sum int64
	for _, v := range b.Self {
		sum += v
	}
	if diff := sum - b.Root; diff*100 > b.Root || diff*100 < -b.Root {
		t.Errorf("self times sum to %d, root is %d: more than 1%% apart", sum, b.Root)
	}
}

// The same through a cluster: hop rpc -> center handler -> source rpc ->
// source handler, two centers in parallel.
func TestDecomposeClusterIdentity(t *testing.T) {
	spans := []span{
		{Kind: kindClient, Name: "cjsp", Start: 0, End: 1000},
		sp(kindHop, 100, 600), sp(kindCenter, 150, 550), sp(kindRPC, 200, 500), sp(kindServe, 250, 450),
		sp(kindHop, 100, 900), sp(kindCenter, 130, 880), sp(kindRPC, 300, 800), sp(kindServe, 320, 700),
	}
	b, ok := decompose(spans)
	if !ok {
		t.Fatal("decompose found no root")
	}
	// hop 100..900 = 800; center 130..880 = 750; rpc 200..800 = 600; serve 250..700 = 450.
	want := [numKinds]int64{kindClient: 200, kindHop: 50, kindCenter: 150, kindRPC: 150, kindServe: 450}
	if b.Self != want || b.Stray != 0 {
		t.Fatalf("breakdown self = %v stray %d, want %v stray 0", b.Self, b.Stray, want)
	}
	var sum int64
	for _, v := range b.Self {
		sum += v
	}
	if sum != b.Root {
		t.Errorf("self times sum to %d, root is %d", sum, b.Root)
	}
}

func TestDecomposeReportsStrayTime(t *testing.T) {
	spans := []span{
		{Kind: kindClient, Name: "ojsp", Start: 0, End: 100},
		sp(kindRPC, 10, 60), sp(kindServe, 50, 90), // serve runs 30 past its rpc
	}
	b, _ := decompose(spans)
	if b.Stray != 30 {
		t.Errorf("stray = %d, want 30", b.Stray)
	}
	if _, ok := decompose(spans[1:]); ok {
		t.Error("decompose accepted a request without a client span")
	}
}

func TestPairCallsMatchesInOrderAndSkipsRetries(t *testing.T) {
	mk := func(kind spanKind, peer, method string, start, end int64) span {
		return span{Kind: kind, Peer: peer, Name: method, Start: start, End: end}
	}
	spans := []span{
		mk(kindRPC, "A", "coverage.round", 300, 400), mk(kindServe, "A", "coverage.round", 310, 390),
		mk(kindRPC, "A", "coverage.round", 100, 200), mk(kindServe, "A", "coverage.round", 120, 180),
		mk(kindRPC, "B", "coverage.round", 100, 250), mk(kindServe, "B", "coverage.round", 110, 240),
		// A retried call: two rpcs, one serve. Unpairable, so skipped.
		mk(kindRPC, "C", "overlap.search", 100, 150), mk(kindRPC, "C", "overlap.search", 150, 220),
		mk(kindServe, "C", "overlap.search", 160, 210),
	}
	pairs := pairCalls(spans, kindRPC, kindServe)
	if len(pairs) != 3 {
		t.Fatalf("got %d pairs, want 3: %+v", len(pairs), pairs)
	}
	for _, p := range pairs {
		if p.Serve.Start < p.RPC.Start || p.Serve.End > p.RPC.End || p.Serve.Peer != p.RPC.Peer {
			t.Errorf("pair %+v: serve is not inside its rpc", p)
		}
	}
}

// The wrappers must be invisible to the program: a wrapped handler and a
// wrapped peer return byte-identical answers, traced or not, and record a
// span only when a trace is present and the recorder wants it.
func TestWrappersPassThrough(t *testing.T) {
	spec, _ := workloadByName("ojsp-large")
	spec.scale = 0.01
	cp := newCorpus(spec.scale)
	gen := newGenerator(spec, cp, 1)
	rec := newRecorder()
	st, err := newStack(spec, cp, rec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := st.sources[0]
	plain := h.srv.Handler()
	wrapped := tracedHandler(plain, rec, kindServe, h.name)
	codec := federation.BinaryCodec
	s := gen.stream(streamCheck)
	encode := func(v any) []byte {
		b, err := codec.Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	traced := obs.WithTrace(context.Background(), obs.NewTrace())
	for i := 0; i < 16; i++ {
		req := federation.OverlapRequest{Cells: gen.cells(s.fresh()), K: ojspK}
		body := encode(&req)
		want, err := plain(context.Background(), codec, federation.MethodOverlap, body)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []recMode{recOff, recAll} {
			rec.set(mode)
			for _, ctx := range []context.Context{context.Background(), traced} {
				got, err := wrapped(ctx, codec, federation.MethodOverlap, body)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encode(got), encode(want)) {
					t.Fatalf("query %d: wrapped handler answered differently", i)
				}
				var viaPlain, viaWrapped federation.OverlapResponse
				inproc := &transport.InProc{Name: h.name, Handler: plain, Metrics: &transport.Metrics{}, Codec: codec}
				peer := &tracedPeer{inner: inproc, rec: rec, kind: kindRPC, name: h.name}
				if err := inproc.Call(ctx, federation.MethodOverlap, &req, &viaPlain); err != nil {
					t.Fatal(err)
				}
				if err := peer.Call(ctx, federation.MethodOverlap, &req, &viaWrapped); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encode(&viaWrapped), encode(&viaPlain)) {
					t.Fatalf("query %d: wrapped peer answered differently", i)
				}
			}
		}
	}
	// Per query: one handler span and one peer span, from the (recAll,
	// traced) combination only.
	spans := rec.take()
	if len(spans) != 32 {
		t.Fatalf("recorded %d spans, want 32", len(spans))
	}
	for _, s := range spans {
		if s.Trace != obs.TraceFrom(traced).ID() || s.Name != federation.MethodOverlap || s.Peer != h.name || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
	}
}

// A traced window records the requests sampled picks and no others, and
// sampled picks two in three of random trace IDs.
func TestSampledModeRecordsTwoThirds(t *testing.T) {
	rec := newRecorder()
	rec.set(recSampled)
	h := tracedHandler(func(context.Context, transport.Codec, string, []byte) (any, error) { return nil, nil },
		rec, kindServe, "src")
	const n = 3000
	want := 0
	for i := 0; i < n; i++ {
		tr := obs.NewTrace()
		if sampled(tr.ID()) {
			want++
		}
		if _, err := h(obs.WithTrace(context.Background(), tr), nil, "m", nil); err != nil {
			t.Fatal(err)
		}
	}
	spans := rec.take()
	if len(spans) != want {
		t.Fatalf("recorded %d spans, sampled picked %d", len(spans), want)
	}
	for _, s := range spans {
		if !sampled(s.Trace) {
			t.Fatalf("recorded trace %s, which sampled does not pick", s.Trace)
		}
	}
	if share := float64(want) / n; share < 0.62 || share > 0.71 {
		t.Errorf("sampled picked %.3f of %d random IDs, want about two thirds", share, n)
	}
}

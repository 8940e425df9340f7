package federation

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dits/internal/cache"
	"dits/internal/transport"
)

// testFederation bundles the pieces the batch tests drive.
type testFederation struct {
	center  *Center
	servers []*SourceServer
}

// newTestFederation builds a three-source in-process federation.
func newTestFederation(t *testing.T, opts Options) *testFederation {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	center, _, servers := buildFederation(rng, 3, 40, opts)
	return &testFederation{center: center, servers: servers}
}

// batchTestQueries samples queries across the test federation's sources.
func batchTestQueries(t *testing.T, f *testFederation, n int) []BatchQuery {
	t.Helper()
	var qs []BatchQuery
	for i := 0; i < n; i++ {
		src := f.servers[i%len(f.servers)]
		nd := src.Index.All()[i%src.Index.Len()]
		cells := nd.Cells
		if i%3 == 1 { // widen some queries across source boundaries
			other := f.servers[(i+1)%len(f.servers)]
			cells = cells.Union(other.Index.All()[i%other.Index.Len()].Cells)
		}
		qs = append(qs, BatchQuery{Cells: cells, K: 1 + i%7})
	}
	return qs
}

// TestOverlapSearchBatchParity: every entry of a batched search must be
// identical to the same query asked alone, across option combinations and
// sizes of the center's prep pool (GOMAXPROCS; 0 leaves it as it is).
func TestOverlapSearchBatchParity(t *testing.T) {
	for _, c := range []struct {
		opts    Options
		workers int
	}{
		{Options{}, 0},
		{Options{GlobalFilter: true, ClipQuery: true}, 0},
		{Options{GlobalFilter: true, ClipQuery: true}, 4},
	} {
		t.Run(fmt.Sprintf("filter=%v_workers=%d", c.opts.GlobalFilter, c.workers), func(t *testing.T) {
			if c.workers > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.workers))
			}
			f := newTestFederation(t, c.opts)
			qs := batchTestQueries(t, f, 9)
			got, err := f.center.OverlapSearchBatch(context.Background(), qs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(qs) {
				t.Fatalf("got %d results for %d queries", len(got), len(qs))
			}
			for i, q := range qs {
				want, err := f.center.OverlapSearch(context.Background(), q.Cells, q.K)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("query %d: batch %v != single %v", i, got[i], want)
				}
			}
		})
	}
}

// TestOverlapSearchBatchOfOne: the smallest batch is exactly the single
// path.
func TestOverlapSearchBatchOfOne(t *testing.T) {
	f := newTestFederation(t, DefaultOptions())
	q := batchTestQueries(t, f, 1)[0]
	got, err := f.center.OverlapSearchBatch(context.Background(), []BatchQuery{q})
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.center.OverlapSearch(context.Background(), q.Cells, q.K)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("batch of one %v != single %v", got[0], want)
	}
}

// TestOverlapSearchBatchCacheSharing: a batch fills the result cache with
// per-query entries that single queries hit, and vice versa.
func TestOverlapSearchBatchCacheSharing(t *testing.T) {
	f := newTestFederation(t, DefaultOptions())
	f.center.SetCache(cache.New(64))
	qs := batchTestQueries(t, f, 4)
	if _, err := f.center.OverlapSearchBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	st := f.center.Cache().Stats()
	if st.Len == 0 {
		t.Fatal("batch filled no cache entries")
	}
	msgs := f.center.Metrics.Messages()
	for _, q := range qs {
		if _, err := f.center.OverlapSearch(context.Background(), q.Cells, q.K); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.center.Metrics.Messages(); got != msgs {
		t.Fatalf("single queries after a batch hit the network: %d -> %d messages", msgs, got)
	}
	// And the reverse: a fresh batch over now-cached queries is silent.
	if _, err := f.center.OverlapSearchBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	if got := f.center.Metrics.Messages(); got != msgs {
		t.Fatalf("batch over cached queries hit the network: %d -> %d messages", msgs, got)
	}
}

// TestOverlapSearchBatchRoundTrips: a batch of B queries costs one
// search.batch call per involved source, not B overlap.search calls.
func TestOverlapSearchBatchRoundTrips(t *testing.T) {
	f := newTestFederation(t, Options{}) // no filtering: every source contacted
	qs := batchTestQueries(t, f, 8)
	f.center.Metrics.Reset()
	if _, err := f.center.OverlapSearchBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	per := f.center.Metrics.PerMethod()
	if per[MethodOverlap].Calls != 0 {
		t.Fatalf("batch used %d single overlap calls", per[MethodOverlap].Calls)
	}
	if got, want := per[MethodSearchBatch].Calls, int64(len(f.servers)); got != want {
		t.Fatalf("batch made %d search.batch calls, want %d (one per source)", got, want)
	}
}

// failingBatchPeer fails every call once armed.
type failingBatchPeer struct {
	transport.Peer
	fail bool
}

func (p *failingBatchPeer) Call(ctx context.Context, method string, req, resp any) error {
	if p.fail {
		return fmt.Errorf("peer down")
	}
	return p.Peer.Call(ctx, method, req, resp)
}

// TestOverlapSearchBatchFailurePolicies: FailFast aborts the whole batch;
// SkipFailed answers from the survivors and never caches the degraded
// queries.
func TestOverlapSearchBatchFailurePolicies(t *testing.T) {
	build := func(policy FailurePolicy) (*testFederation, *failingBatchPeer) {
		f := newTestFederation(t, Options{OnSourceError: policy})
		srv := f.servers[0]
		fp := &failingBatchPeer{Peer: &transport.InProc{
			Name: srv.Name, Handler: srv.Handler(), Metrics: f.center.Metrics,
		}}
		f.center.Register(srv.Summary(), fp)
		return f, fp
	}

	f, fp := build(FailFast)
	qs := batchTestQueries(t, f, 5)
	fp.fail = true
	if _, err := f.center.OverlapSearchBatch(context.Background(), qs); err == nil {
		t.Fatal("FailFast batch with a dead source succeeded")
	}

	f, fp = build(SkipFailed)
	f.center.SetCache(cache.New(64))
	qs = batchTestQueries(t, f, 5)
	fp.fail = true
	got, err := f.center.OverlapSearchBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("SkipFailed answered %d of %d queries", len(got), len(qs))
	}
	if f.center.Metrics.Failures()[f.servers[0].Name] == 0 {
		t.Fatal("failure not recorded in metrics")
	}
	// Recover the source: the degraded answers must not have been cached,
	// so the same batch now includes the recovered source's datasets.
	fp.fail = false
	full, err := f.center.OverlapSearchBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		want, err := f.center.OverlapSearch(context.Background(), qs[i].Cells, qs[i].K)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full[i], want) {
			t.Fatalf("query %d: post-recovery batch %v != single %v", i, full[i], want)
		}
	}
}

// TestSearchBatchSourceHandler drives MethodSearchBatch at the wire level:
// alignment, empty entries, and parity with MethodOverlap.
func TestSearchBatchSourceHandler(t *testing.T) {
	f := newTestFederation(t, Options{})
	srv := f.servers[0]
	h := srv.Handler()
	q1 := srv.Index.All()[0].Cells
	q2 := srv.Index.All()[1].Cells
	req := SearchBatchRequest{Queries: []OverlapRequest{
		{Cells: q1, K: 3},
		{Cells: nil, K: 3}, // empty query: empty aligned answer
		{Cells: q2, K: 0},  // k=0: empty aligned answer
		{Cells: q2, K: 5},
	}}
	var resp SearchBatchResponse
	callHandler(t, h, MethodSearchBatch, &req, &resp)
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	if len(resp.Results[1].Results) != 0 || len(resp.Results[2].Results) != 0 {
		t.Fatal("degenerate entries must answer empty")
	}
	for _, i := range []int{0, 3} {
		var want OverlapResponse
		callHandler(t, h, MethodOverlap, &OverlapRequest{Cells: req.Queries[i].Cells, K: req.Queries[i].K}, &want)
		if !reflect.DeepEqual(resp.Results[i], want) {
			t.Fatalf("entry %d: batch %v != single %v", i, resp.Results[i], want)
		}
	}
}

// callHandler drives a source handler at the wire level: the request is
// encoded, dispatched, and the handler's answer decoded into resp,
// exactly as a connection would carry it.
func callHandler(t *testing.T, h transport.Handler, method string, req, resp any) {
	t.Helper()
	body, err := BinaryCodec.Append(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := h(context.Background(), BinaryCodec, method, body)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := BinaryCodec.Append(nil, ret)
	if err != nil {
		t.Fatal(err)
	}
	if err := BinaryCodec.Decode(payload, resp); err != nil {
		t.Fatal(err)
	}
}

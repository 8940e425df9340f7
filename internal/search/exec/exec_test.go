package exec

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
	"dits/internal/search/overlap"
)

// buildWorld generates n clustered datasets on a 2^theta grid and indexes
// them, returning the index and the nodes. Deterministic per seed.
func buildWorld(t testing.TB, n, theta, f int, seed int64) (*dits.Local, []*dataset.Node) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	side := 1 << uint(theta)
	nodes := make([]*dataset.Node, 0, n)
	for i := 0; i < n; i++ {
		// A dense square patch of cells at a random position, sometimes
		// overlapping earlier patches (z-order clustering).
		blk := 4 + rng.Intn(12)
		bx, by := rng.Intn(side-blk), rng.Intn(side-blk)
		var ids []uint64
		for dx := 0; dx < blk; dx++ {
			for dy := 0; dy < blk; dy++ {
				if rng.Intn(3) > 0 {
					ids = append(ids, geo.ZEncode(uint32(bx+dx), uint32(by+dy)))
				}
			}
		}
		if nd := dataset.NewNodeFromCells(i, "", cellset.New(ids...)); nd != nil {
			nodes = append(nodes, nd)
		}
	}
	g := geo.NewGrid(1, geo.Rect{MinX: 0, MinY: 0, MaxX: float64(side), MaxY: float64(side)})
	return dits.Build(g, nodes, f), nodes
}

// queryFrom builds a query node overlapping some of the world's nodes.
func queryFrom(rng *rand.Rand, nodes []*dataset.Node) *dataset.Node {
	q := nodes[rng.Intn(len(nodes))].Cells
	for j := 0; j < rng.Intn(3); j++ {
		q = q.Union(nodes[rng.Intn(len(nodes))].Cells)
	}
	return dataset.NewNodeFromCells(-1, "query", q)
}

// TestOverlapParity is the differential test of the tentpole: over many
// fuzzed workloads, the parallel executor at several worker counts and the
// batched executor must return byte-identical results to the sequential
// searcher.
func TestOverlapParity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		idx, nodes := buildWorld(t, 120, 8, 5, seed)
		rng := rand.New(rand.NewSource(seed * 77))
		seq := &overlap.DITSSearcher{Index: idx}
		var batch []BatchQuery
		var want [][]overlap.Result
		for qi := 0; qi < 12; qi++ {
			q := queryFrom(rng, nodes)
			k := 1 + rng.Intn(8)
			exp := seq.TopK(q, k)
			batch = append(batch, BatchQuery{Q: q, K: k})
			want = append(want, exp)
			for _, w := range []int{1, 2, 4, 8} {
				e := &Executor{Workers: w}
				got, err := e.OverlapTopK(context.Background(), idx, q, k)
				if err != nil {
					t.Fatalf("seed %d workers %d: %v", seed, w, err)
				}
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("seed %d workers %d k %d: parallel %v != sequential %v", seed, w, k, got, exp)
				}
			}
		}
		for _, w := range []int{1, 4} {
			e := &Executor{Workers: w}
			got, err := e.OverlapTopKBatch(context.Background(), idx, batch)
			if err != nil {
				t.Fatalf("seed %d: batch: %v", seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d workers %d: batch diverged from sequential", seed, w)
			}
		}
	}
}

// TestBatchOfOneEqualsSingle pins the edge case the gateway depends on: a
// batch of size 1 is exactly the single-query path.
func TestBatchOfOneEqualsSingle(t *testing.T) {
	idx, nodes := buildWorld(t, 80, 8, 5, 3)
	rng := rand.New(rand.NewSource(9))
	e := &Executor{Workers: 4}
	for i := 0; i < 10; i++ {
		q := queryFrom(rng, nodes)
		single, err := e.OverlapTopK(context.Background(), idx, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := e.OverlapTopKBatch(context.Background(), idx, []BatchQuery{{Q: q, K: 5}})
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != 1 || !reflect.DeepEqual(batch[0], single) {
			t.Fatalf("batch of one %v != single %v", batch, single)
		}
	}
}

// TestKLargerThanCandidates: k exceeding the number of joinable datasets
// returns every positive-overlap dataset, ranked, in every execution mode.
func TestKLargerThanCandidates(t *testing.T) {
	idx, nodes := buildWorld(t, 30, 8, 4, 11)
	q := queryFrom(rand.New(rand.NewSource(2)), nodes)
	seq := (&overlap.DITSSearcher{Index: idx}).TopK(q, 10_000)
	for _, w := range []int{1, 4} {
		e := &Executor{Workers: w}
		got, err := e.OverlapTopK(context.Background(), idx, q, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, seq) {
			t.Fatalf("workers %d: k>candidates diverged: %d vs %d results", w, len(got), len(seq))
		}
		b, err := e.OverlapTopKBatch(context.Background(), idx, []BatchQuery{{Q: q, K: 10_000}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b[0], seq) {
			t.Fatalf("workers %d: batched k>candidates diverged", w)
		}
	}
}

// TestDegenerateInputs covers nil/empty inputs in all modes.
func TestDegenerateInputs(t *testing.T) {
	idx, nodes := buildWorld(t, 20, 8, 4, 5)
	e := &Executor{Workers: 4}
	ctx := context.Background()
	if rs, err := e.OverlapTopK(ctx, idx, nil, 5); err != nil || rs != nil {
		t.Fatalf("nil query: %v %v", rs, err)
	}
	if rs, err := e.OverlapTopK(ctx, idx, nodes[0], 0); err != nil || rs != nil {
		t.Fatalf("k=0: %v %v", rs, err)
	}
	if rs, err := e.OverlapTopK(ctx, nil, nodes[0], 5); err != nil || rs != nil {
		t.Fatalf("nil index: %v %v", rs, err)
	}
	out, err := e.OverlapTopKBatch(ctx, idx, []BatchQuery{{Q: nil, K: 5}, {Q: nodes[0], K: 0}})
	if err != nil || len(out) != 2 || out[0] != nil || out[1] != nil {
		t.Fatalf("degenerate batch: %v %v", out, err)
	}
	if res, err := e.CoverageSearch(ctx, idx, nil, 5, 3); err != nil || res.Picked != nil {
		t.Fatalf("nil coverage query: %+v %v", res, err)
	}
}

// TestCancelledContextLeaksNoGoroutines launches heavy queries, cancels
// mid-traversal, and asserts (a) the calls return ctx.Err() and (b) the
// goroutine count settles back to the baseline — the worker pool always
// joins. Run under -race in CI.
func TestCancelledContextLeaksNoGoroutines(t *testing.T) {
	idx, nodes := buildWorld(t, 300, 9, 4, 7)
	rng := rand.New(rand.NewSource(13))
	var batch []BatchQuery
	for i := 0; i < 64; i++ {
		batch = append(batch, BatchQuery{Q: queryFrom(rng, nodes), K: 5})
	}
	before := runtime.NumGoroutine()
	e := &Executor{Workers: 8}
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err1 := e.OverlapTopKBatch(ctx, idx, batch)
			_, err2 := e.CoverageSearchBatch(ctx, idx, []*dataset.Node{batch[0].Q, batch[1].Q}, 4, 3)
			if err1 != nil {
				done <- err1
				return
			}
			done <- err2
		}()
		// Cancel at a random point: sometimes before, sometimes mid-run.
		time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
		cancel()
		err := <-done
		if err != nil && err != context.Canceled {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	// Workers are joined before the calls return, so any surplus is a bug.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	// An already-cancelled context must fail fast with no results.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rs, err := e.OverlapTopK(ctx, idx, batch[0].Q, 5); err != context.Canceled || rs != nil {
		t.Fatalf("pre-cancelled: %v %v", rs, err)
	}
}

// TestCoverageParity: the parallel coverage search must reproduce the
// sequential Algorithm 3 exactly — same picks, same order, same coverage.
func TestCoverageParity(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		idx, nodes := buildWorld(t, 100, 8, 5, seed)
		rng := rand.New(rand.NewSource(seed * 31))
		seq := &coverage.DITSSearcher{Index: idx}
		for qi := 0; qi < 6; qi++ {
			q := queryFrom(rng, nodes)
			delta := float64(rng.Intn(12))
			k := 1 + rng.Intn(6)
			want := seq.Search(q, delta, k)
			for _, w := range []int{1, 2, 8} {
				e := &Executor{Workers: w}
				got, err := e.CoverageSearch(context.Background(), idx, q, delta, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.IDs(), want.IDs()) || got.Coverage != want.Coverage {
					t.Fatalf("seed %d workers %d δ=%v k=%d: parallel %v/%d != sequential %v/%d",
						seed, w, delta, k, got.IDs(), got.Coverage, want.IDs(), want.Coverage)
				}
			}
			batchRes, err := (&Executor{Workers: 4}).CoverageSearchBatch(
				context.Background(), idx, []*dataset.Node{q}, delta, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batchRes[0].IDs(), want.IDs()) {
				t.Fatalf("seed %d: coverage batch of one diverged", seed)
			}
		}
	}
}

// TestFindConnectSetParity: the task-split walk must return the same
// datasets in the same DFS order as the sequential walk.
func TestFindConnectSetParity(t *testing.T) {
	idx, nodes := buildWorld(t, 150, 8, 4, 21)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 8; i++ {
		q := queryFrom(rng, nodes)
		delta := float64(rng.Intn(15))
		want := coverage.FindConnectSet(idx.Root, q, delta)
		for _, w := range []int{2, 8} {
			e := &Executor{Workers: w}
			got := e.FindConnectSet(context.Background(), idx.Root, q, delta, cellset.NewDistIndex(q.Cells, delta))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers %d δ=%v: connect set diverged: %d vs %d", w, delta, len(got), len(want))
			}
		}
	}
}

// TestExtendConnectSetMatchesAdd: walks that skip what the connected set
// already holds must leave it exactly as folding in full walks does — the
// same datasets in the same first-seen order — round after round.
func TestExtendConnectSetMatchesAdd(t *testing.T) {
	idx, nodes := buildWorld(t, 150, 8, 4, 23)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		delta := float64(rng.Intn(15))
		var want coverage.ConnectSet
		got := map[int]*coverage.ConnectSet{1: {}, 4: {}}
		for round := 0; round < 4; round++ {
			q := queryFrom(rng, nodes)
			want.Add(coverage.FindConnectSet(idx.Root, q, delta))
			for w, cs := range got {
				(&Executor{Workers: w}).ExtendConnectSet(context.Background(), idx.Root, q, delta, cellset.NewDistIndex(q.Cells, delta), cs)
				if !reflect.DeepEqual(cs.Nodes, want.Nodes) {
					t.Fatalf("workers %d δ=%v round %d: %d datasets, full walks give %d", w, delta, round, len(cs.Nodes), len(want.Nodes))
				}
			}
		}
	}
}

// FuzzOverlapParity fuzzes the query shape: arbitrary bytes become query
// cells; parallel and batched execution must match the sequential
// searcher on every input.
func FuzzOverlapParity(f *testing.F) {
	idx, nodes := buildWorld(f, 60, 8, 5, 2)
	f.Add([]byte{1, 2, 3, 4, 200, 17}, uint8(5))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{255, 255, 0, 0, 9}, uint8(40))
	_ = nodes
	f.Fuzz(func(t *testing.T, raw []byte, kb uint8) {
		k := int(kb%16) + 1
		var ids []uint64
		for i := 0; i+1 < len(raw); i += 2 {
			x, y := uint32(raw[i]), uint32(raw[i+1])
			ids = append(ids, geo.ZEncode(x, y))
		}
		q := dataset.NewNodeFromCells(-1, "fuzz", cellset.New(ids...))
		if q == nil {
			return
		}
		want := (&overlap.DITSSearcher{Index: idx}).TopK(q, k)
		for _, w := range []int{1, 4} {
			got, err := (&Executor{Workers: w}).OverlapTopK(context.Background(), idx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers %d: %v != %v", w, got, want)
			}
		}
		b, err := (&Executor{Workers: 4}).OverlapTopKBatch(context.Background(), idx, []BatchQuery{{Q: q, K: k}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b[0], want) {
			t.Fatalf("batched: %v != %v", b[0], want)
		}
	})
}

// TestTraceOverlapParity: the instrumented trace must return the same
// results as the sequential searcher and time the leaf tasks behind them.
func TestTraceOverlapParity(t *testing.T) {
	idx, nodes := buildWorld(t, 120, 8, 5, 6)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 8; i++ {
		q := queryFrom(rng, nodes)
		want := (&overlap.DITSSearcher{Index: idx}).TopK(q, 5)
		tr := TraceOverlap(idx, q, 5)
		if !reflect.DeepEqual(tr.Results, want) {
			t.Fatalf("trace results diverged from sequential")
		}
		if len(want) > 0 && len(tr.TaskNs) == 0 {
			t.Fatalf("trace found %d results but timed no leaf task", len(want))
		}
	}
}

package exec

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
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

// TestOverlapParity is the executor's differential test: over many
// fuzzed workloads, the single-query and the batched executor must return
// byte-identical results to the reference searcher.
func TestOverlapParity(t *testing.T) {
	var e Executor
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
			got, err := e.OverlapTopK(context.Background(), idx, q, k)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("seed %d k %d: executor %v != reference %v", seed, k, got, exp)
			}
		}
		got, err := e.OverlapTopKBatch(context.Background(), idx, batch)
		if err != nil {
			t.Fatalf("seed %d: batch: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: batch diverged from single queries", seed)
		}
	}
}

// TestBatchOfOneEqualsSingle pins the edge case the gateway depends on: a
// batch of size 1 is exactly the single-query path.
func TestBatchOfOneEqualsSingle(t *testing.T) {
	idx, nodes := buildWorld(t, 80, 8, 5, 3)
	rng := rand.New(rand.NewSource(9))
	var e Executor
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
	var e Executor
	got, err := e.OverlapTopK(context.Background(), idx, q, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seq) {
		t.Fatalf("k>candidates diverged: %d vs %d results", len(got), len(seq))
	}
	b, err := e.OverlapTopKBatch(context.Background(), idx, []BatchQuery{{Q: q, K: 10_000}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b[0], seq) {
		t.Fatal("batched k>candidates diverged")
	}
}

// TestDegenerateInputs covers nil/empty inputs in all modes.
func TestDegenerateInputs(t *testing.T) {
	idx, nodes := buildWorld(t, 20, 8, 4, 5)
	var e Executor
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

// TestCancelledContextReturnsNoResults cancels heavy batches at random
// points, before or mid-traversal: a call returns either its full answer
// or ctx.Err() with no results. Run under -race in CI.
func TestCancelledContextReturnsNoResults(t *testing.T) {
	idx, nodes := buildWorld(t, 300, 9, 4, 7)
	rng := rand.New(rand.NewSource(13))
	var batch []BatchQuery
	for i := 0; i < 64; i++ {
		batch = append(batch, BatchQuery{Q: queryFrom(rng, nodes), K: 5})
	}
	var e Executor
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		type answer struct {
			out [][]overlap.Result
			err error
		}
		done := make(chan answer, 1)
		go func() {
			out, err := e.OverlapTopKBatch(ctx, idx, batch)
			done <- answer{out, err}
		}()
		time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
		cancel()
		a := <-done
		switch {
		case a.err == nil && len(a.out) != len(batch):
			t.Fatalf("run %d: %d answers for %d queries", i, len(a.out), len(batch))
		case a.err != nil && (a.err != context.Canceled || a.out != nil):
			t.Fatalf("run %d: %v with %d answers", i, a.err, len(a.out))
		}
	}
	// An already-cancelled context must fail fast with no results.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rs, err := e.OverlapTopK(ctx, idx, batch[0].Q, 5); err != context.Canceled || rs != nil {
		t.Fatalf("pre-cancelled: %v %v", rs, err)
	}
	if out, err := e.OverlapTopKBatch(ctx, idx, batch); err != context.Canceled || out != nil {
		t.Fatalf("pre-cancelled batch: %d answers, %v", len(out), err)
	}
}

// TestCoverageParity: the executor's incremental coverage search must
// reproduce the reference Algorithm 3 exactly — same picks, same order,
// same coverage.
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
			got, err := (&Executor{}).CoverageSearch(context.Background(), idx, q, delta, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.IDs(), want.IDs()) || got.Coverage != want.Coverage {
				t.Fatalf("seed %d δ=%v k=%d: executor %v/%d != reference %v/%d",
					seed, delta, k, got.IDs(), got.Coverage, want.IDs(), want.Coverage)
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
		var want, got coverage.ConnectSet
		for round := 0; round < 4; round++ {
			q := queryFrom(rng, nodes)
			want.Add(coverage.FindConnectSet(idx.Root, q, delta))
			(&Executor{}).ExtendConnectSet(context.Background(), idx.Root, q, delta, cellset.NewDistIndex(q.Cells, delta), &got)
			if !reflect.DeepEqual(got.Nodes, want.Nodes) {
				t.Fatalf("δ=%v round %d: %d datasets, full walks give %d", delta, round, len(got.Nodes), len(want.Nodes))
			}
		}
	}
}

// FuzzOverlapParity fuzzes the query shape: arbitrary bytes become query
// cells; single-query and batched execution must match the reference
// searcher (Algorithm 2) on every input.
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
		var e Executor
		got, err := e.OverlapTopK(context.Background(), idx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v != %v", got, want)
		}
		b, err := e.OverlapTopKBatch(context.Background(), idx, []BatchQuery{{Q: q, K: k}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b[0], want) {
			t.Fatalf("batched: %v != %v", b[0], want)
		}
	})
}

// TestTraceOverlapParity: the instrumented trace must return the same
// results as the reference searcher and time the leaf tasks behind them.
func TestTraceOverlapParity(t *testing.T) {
	idx, nodes := buildWorld(t, 120, 8, 5, 6)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 8; i++ {
		q := queryFrom(rng, nodes)
		want := (&overlap.DITSSearcher{Index: idx}).TopK(q, 5)
		tr := TraceOverlap(idx, q, 5)
		if !reflect.DeepEqual(tr.Results, want) {
			t.Fatalf("trace results diverged from the reference")
		}
		if len(want) > 0 && len(tr.TaskNs) == 0 {
			t.Fatalf("trace found %d results but timed no leaf task", len(want))
		}
	}
}

// TestConcurrentOverlap: eight goroutines run OverlapTopK and
// OverlapTopKBatch on one index at once, each query with its own probe
// from the shared free list (more than the list holds, so some are built
// afresh and dropped again), and every answer must equal the sequential
// one. Run it with -race.
func TestConcurrentOverlap(t *testing.T) {
	idx, nodes := buildWorld(t, 300, 10, 8, 41)
	rng := rand.New(rand.NewSource(42))
	var batch []BatchQuery
	for range 20 {
		batch = append(batch, BatchQuery{Q: queryFrom(rng, nodes), K: 1 + rng.Intn(8)})
	}
	// A query whose one chunk is a bitmap (6,400 cells of a 256×256 block).
	var dense []uint64
	for x := 300; x < 380; x++ {
		for y := 10; y < 90; y++ {
			dense = append(dense, geo.ZEncode(uint32(x), uint32(y)))
		}
	}
	batch = append(batch, BatchQuery{Q: dataset.NewNodeFromCells(-1, "dense", cellset.New(dense...)), K: 5})

	var e Executor
	ctx := context.Background()
	want := make([][]overlap.Result, len(batch))
	for i, bq := range batch {
		got, err := e.OverlapTopK(ctx, idx, bq.Q, bq.K)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = got
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range 10 {
				if (w+rep)%2 == 0 {
					got, err := e.OverlapTopKBatch(ctx, idx, batch)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("goroutine %d: batch diverged from the sequential answers (err %v)", w, err)
						return
					}
					continue
				}
				for i, bq := range batch {
					got, err := e.OverlapTopK(ctx, idx, bq.Q, bq.K)
					if err != nil || !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d, query %d: %v != sequential %v (err %v)", w, i, got, want[i], err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

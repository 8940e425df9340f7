package integration

import (
	"context"
	"reflect"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
	"dits/internal/search/exec"
	"dits/internal/search/overlap"
	"dits/internal/workload"
)

// TestMutatedIndexSearchersMatchRebuild is the ingest differential test:
// after every checkpoint of a random Insert/Delete/Update interleaving on
// a live dits.Local, EVERY searcher — sequential OJSP, the parallel
// executor, the batched executor, and CJSP (sequential and the parallel
// connect/pick components) — must return byte-identical results to a
// fresh Build over the surviving datasets. This is the property that
// makes the durable write path trustworthy: an incrementally maintained
// index is indistinguishable, by answers, from a rebuilt one.
func TestMutatedIndexSearchersMatchRebuild(t *testing.T) {
	spec, err := workload.SpecByName("Transit")
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Generate(spec, 0.04, 11)
	g := geo.NewGrid(12, src.Bounds())
	live := dits.Build(g, src.Nodes(g), 8)

	surviving := map[int]*dataset.Node{}
	for _, nd := range src.Nodes(g) {
		surviving[nd.ID] = nd
	}

	// The mutation stream comes from the generator the benchmark and the
	// examples use, so this test also pins the trace's applicability.
	trace := workload.GenerateTrace([]*dataset.Source{src}, 120, 21)
	queries := sampleQueryNodes(t, g, src, 12)

	checkpoint := func(t *testing.T, step int) {
		if err := live.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		rebuilt := dits.Build(g, nodesOf(surviving), 8)
		seqLive := &overlap.DITSSearcher{Index: live}
		seqRebuilt := &overlap.DITSSearcher{Index: rebuilt}
		ex := &exec.Executor{}
		ctx := context.Background()

		batch := make([]exec.BatchQuery, len(queries))
		for i, q := range queries {
			batch[i] = exec.BatchQuery{Q: q, K: 7}
		}
		batchLive, err := ex.OverlapTopKBatch(ctx, live, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want := seqRebuilt.TopK(q, 7)
			if got := seqLive.TopK(q, 7); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d query %d: sequential OJSP diverged from rebuild\n got %v\nwant %v", step, i, got, want)
			}
			par, err := ex.OverlapTopK(ctx, live, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par, want) {
				t.Fatalf("step %d query %d: parallel OJSP diverged from rebuild", step, i)
			}
			if !reflect.DeepEqual(batchLive[i], want) {
				t.Fatalf("step %d query %d: batched OJSP diverged from rebuild", step, i)
			}

			// CJSP: greedy picks, gains, and coverage totals must agree.
			covLive := (&coverage.DITSSearcher{Index: live}).Search(q, 6, 4)
			covRebuilt := (&coverage.DITSSearcher{Index: rebuilt}).Search(q, 6, 4)
			if !reflect.DeepEqual(covLive.IDs(), covRebuilt.IDs()) ||
				covLive.Coverage != covRebuilt.Coverage ||
				covLive.QueryCoverage != covRebuilt.QueryCoverage {
				t.Fatalf("step %d query %d: CJSP diverged from rebuild: %v/%d vs %v/%d",
					step, i, covLive.IDs(), covLive.Coverage, covRebuilt.IDs(), covRebuilt.Coverage)
			}

			// The parallel CJSP component the federation uses: on the SAME
			// tree it must reproduce the sequential walk exactly; against
			// the rebuilt tree (a different shape, hence a different
			// traversal order) the connected SET must match.
			seqConn := coverage.FindConnectSetWithIndex(live.Root, q, 6, cellset.NewDistIndex(q.Cells, 6), nil)
			parConn := ex.FindConnectSet(ctx, live.Root, q, 6, cellset.NewDistIndex(q.Cells, 6))
			if !sameIDs(parConn, seqConn) {
				t.Fatalf("step %d query %d: parallel FindConnectSet diverged from sequential", step, i)
			}
			rebuiltConn := coverage.FindConnectSetWithIndex(rebuilt.Root, q, 6, cellset.NewDistIndex(q.Cells, 6), nil)
			if !sameIDSet(parConn, rebuiltConn) {
				t.Fatalf("step %d query %d: connect set diverged from rebuild", step, i)
			}
		}
	}

	checkpoint(t, 0)
	for step, m := range trace {
		switch m.Op {
		case workload.MutDelete:
			if err := live.Delete(m.ID); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			delete(surviving, m.ID)
		case workload.MutPut:
			pts := make([]geo.Point, len(m.Points))
			for i, p := range m.Points {
				pts[i] = geo.Point{X: p[0], Y: p[1]}
			}
			nd := dataset.NewNodeFromCells(m.ID, m.Name, cellset.FromPoints(g, pts))
			if nd == nil {
				continue
			}
			if live.Get(m.ID) != nil {
				if err := live.Update(nd); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			} else if err := live.Insert(nd); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			surviving[m.ID] = nd
		}
		if step == 20 || step == 60 || step == len(trace)-1 {
			checkpoint(t, step+1)
		}
	}
}

// sampleQueryNodes grids q sampled datasets into query nodes.
func sampleQueryNodes(t *testing.T, g geo.Grid, src *dataset.Source, q int) []*dataset.Node {
	t.Helper()
	var out []*dataset.Node
	for _, d := range workload.SampleQueries(src, q, 17) {
		nd := dataset.NewNode(g, d)
		if nd == nil {
			continue
		}
		nd.ID = -1
		out = append(out, nd)
	}
	if len(out) == 0 {
		t.Fatal("no query nodes sampled")
	}
	return out
}

// sameIDs compares two node slices by dataset ID, order-sensitive.
func sameIDs(a, b []*dataset.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// sameIDSet compares two node slices by dataset ID, order-insensitive.
func sameIDSet(a, b []*dataset.Node) bool {
	if len(a) != len(b) {
		return false
	}
	ids := make(map[int]bool, len(a))
	for _, n := range a {
		ids[n.ID] = true
	}
	for _, n := range b {
		if !ids[n.ID] {
			return false
		}
	}
	return true
}

// Package integration exercises the full stack end to end: workload
// generation -> gridding -> DITS indexes -> searches -> live updates ->
// federation over both transports. Where unit tests pin down one module,
// these tests pin down the joints between them.
package integration

import (
	"context"
	"math/rand"
	"testing"

	"dits/internal/cellset"
	"dits/internal/core"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
	"dits/internal/search/overlap"
	"dits/internal/transport"
	"dits/internal/workload"
)

// TestSearchAfterMutationsMatchesRebuild: a long random mutation sequence
// applied to a live engine must leave it answering exactly like an index
// built from scratch over the surviving datasets.
func TestSearchAfterMutationsMatchesRebuild(t *testing.T) {
	spec, err := workload.SpecByName("Transit")
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Generate(spec, 0.05, 3)
	g := geo.NewGrid(12, src.Bounds())
	live := dits.Build(g, src.Nodes(g), 10)

	rng := rand.New(rand.NewSource(4))
	surviving := map[int]*dataset.Node{}
	for _, nd := range src.Nodes(g) {
		surviving[nd.ID] = nd
	}
	extra := workload.Generate(spec, 0.05, 99) // donor pool for inserts/updates
	for step := 0; step < 150; step++ {
		donor := dataset.NewNode(g, extra.Datasets[rng.Intn(len(extra.Datasets))])
		if donor == nil {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			donor.ID = 10_000 + step
			if err := live.Insert(donor); err != nil {
				t.Fatal(err)
			}
			surviving[donor.ID] = donor
		case 1:
			if len(surviving) == 0 {
				continue
			}
			id := anyKey(rng, surviving)
			if err := live.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(surviving, id)
		default:
			if len(surviving) == 0 {
				continue
			}
			donor.ID = anyKey(rng, surviving)
			if err := live.Update(donor); err != nil {
				t.Fatal(err)
			}
			surviving[donor.ID] = donor
		}
	}
	if err := live.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	rebuilt := dits.Build(g, nodesOf(surviving), 10)
	liveS := &overlap.DITSSearcher{Index: live}
	rebuiltS := &overlap.DITSSearcher{Index: rebuilt}
	liveC := &coverage.DITSSearcher{Index: live}
	rebuiltC := &coverage.DITSSearcher{Index: rebuilt}

	for trial := 0; trial < 25; trial++ {
		q := dataset.NewNode(g, extra.Datasets[rng.Intn(len(extra.Datasets))])
		if q == nil {
			continue
		}
		q.ID = -1
		a := liveS.TopK(q, 8)
		b := rebuiltS.TopK(q, 8)
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d overlap results", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].Overlap != b[i].Overlap {
				t.Fatalf("trial %d: overlap rank %d: %d vs %d", trial, i, a[i].Overlap, b[i].Overlap)
			}
		}
		ca := liveC.Search(q, 5, 4)
		cb := rebuiltC.Search(q, 5, 4)
		if ca.Coverage != cb.Coverage {
			t.Fatalf("trial %d: coverage %d vs %d", trial, ca.Coverage, cb.Coverage)
		}
	}
}

// TestFederationSurvivesSourceChurn: unregistering a source must remove its
// datasets from results; re-registering restores them.
func TestFederationSourceChurn(t *testing.T) {
	g := geo.NewGrid(10, geo.Rect{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024})
	center := federation.NewCenter(g, federation.DefaultOptions())

	mk := func(name string, baseX uint32) *federation.SourceServer {
		var nodes []*dataset.Node
		for i := 0; i < 20; i++ {
			nodes = append(nodes, dataset.NewNodeFromCells(i, name,
				cellset.New(geo.ZEncode(baseX+uint32(i), 5), geo.ZEncode(baseX+uint32(i), 6))))
		}
		return federation.NewSourceServerWithGrid(name, dits.Build(g, nodes, 5))
	}
	a := mk("a", 0)
	b := mk("b", 3)
	reg := func(s *federation.SourceServer) {
		center.Register(s.Summary(), &transport.InProc{
			Name: s.Name, Handler: s.Handler(), Metrics: center.Metrics,
		})
	}
	reg(a)
	reg(b)

	q := cellset.New(geo.ZEncode(4, 5), geo.ZEncode(5, 5))
	rs, err := center.OverlapSearch(context.Background(), q, 50)
	if err != nil {
		t.Fatal(err)
	}
	both := map[string]bool{}
	for _, r := range rs {
		both[r.Source] = true
	}
	if !both["a"] || !both["b"] {
		t.Fatalf("expected results from both sources, got %v", rs)
	}

	center.Unregister("b")
	rs, err = center.OverlapSearch(context.Background(), q, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Source == "b" {
			t.Fatal("unregistered source still answering")
		}
	}

	reg(b)
	rs, err = center.OverlapSearch(context.Background(), q, 50)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs {
		if r.Source == "b" {
			found = true
		}
	}
	if !found {
		t.Fatal("re-registered source missing from results")
	}
}

// TestCenterAgainstSingleEngine: a federation.Center over disjoint slices
// of one source, each served by a SourceServer on the shared grid, must
// answer like a core.Engine over the whole source.
func TestCenterAgainstSingleEngine(t *testing.T) {
	spec, err := workload.SpecByName("Baidu")
	if err != nil {
		t.Fatal(err)
	}
	whole := workload.Generate(spec, 0.03, 8)
	eng, err := core.NewEngine(whole, core.Config{Theta: 12, Bounds: whole.Bounds()})
	if err != nil {
		t.Fatal(err)
	}
	g := eng.Grid()

	// Split into three sources by dataset index.
	parts := make([]*dataset.Source, 3)
	for i := range parts {
		parts[i] = &dataset.Source{Name: string(rune('a' + i))}
	}
	for i, d := range whole.Datasets {
		parts[i%3].Datasets = append(parts[i%3].Datasets, d)
	}
	ctx := context.Background()
	center := federation.NewCenter(g, federation.DefaultOptions())
	for _, p := range parts {
		srv := federation.NewSourceServerWithGrid(p.Name, dits.Build(g, p.Nodes(g), dits.DefaultLeafCapacity))
		peer := &transport.InProc{Name: p.Name, Handler: srv.Handler(), Metrics: center.Metrics}
		if _, err := center.RegisterRemote(ctx, peer); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		q := whole.Datasets[rng.Intn(len(whole.Datasets))].Points
		cells := cellset.FromPoints(g, q)
		want := eng.OverlapSearch(q, 10)
		got, err := center.OverlapSearch(ctx, cells, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if want[i].Score != got[i].Overlap {
				t.Fatalf("trial %d rank %d: score %d vs %d", trial, i, got[i].Overlap, want[i].Score)
			}
		}
		wc := eng.CoverageSearch(q, 5, 5)
		gc, err := center.CoverageSearch(ctx, cells, 5, 5)
		if err != nil {
			t.Fatal(err)
		}
		if wc.Coverage != gc.Coverage {
			t.Fatalf("trial %d: coverage %d vs %d", trial, gc.Coverage, wc.Coverage)
		}
	}
}

func nodesOf(m map[int]*dataset.Node) []*dataset.Node {
	out := make([]*dataset.Node, 0, len(m))
	for _, nd := range m {
		out = append(out, nd)
	}
	dataset.SortByID(out)
	return out
}

func anyKey(rng *rand.Rand, m map[int]*dataset.Node) int {
	n := rng.Intn(len(m))
	for id := range m {
		if n == 0 {
			return id
		}
		n--
	}
	panic("unreachable")
}

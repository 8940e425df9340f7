// Package dits_test holds one testing.B benchmark per table and figure of
// the paper's evaluation. The `ditsbench` command regenerates the full
// tables (parameter sweeps, all sources); these benchmarks time the core
// operation behind each figure at the default parameters so `go test
// -bench=.` gives a quick, comparable profile of the whole system.
package dits_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"dits/internal/bench"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/index/josie"
	"dits/internal/index/quadtree"
	"dits/internal/index/rtree"
	"dits/internal/index/sts3"
	"dits/internal/search/coverage"
	"dits/internal/search/overlap"
	"dits/internal/transport"
	"dits/internal/workload"
)

// fixture is the shared benchmark state: the five scaled sources gridded at
// the default θ, plus query nodes.
type fixture struct {
	sources []*dataset.Source
	grid    geo.Grid // shared world grid (federation benchmarks)
	nodes   [][]*dataset.Node

	transit      *dataset.Source
	transitGrid  geo.Grid
	transitNodes []*dataset.Node
	queries      []*dataset.Node
	queryCells   []cellset.Set
}

var (
	fx     *fixture
	fxOnce sync.Once
)

const (
	benchScale = 0.02
	benchTheta = 12
	benchK     = 10
	benchDelta = 10.0
	benchF     = 30
)

func setup() *fixture {
	fxOnce.Do(func() {
		f := &fixture{}
		f.sources = workload.GenerateAll(benchScale, 1)
		world := geo.EmptyRect
		for _, s := range f.sources {
			world = world.Union(s.Bounds())
		}
		f.grid = geo.NewGrid(benchTheta, world)
		for _, s := range f.sources {
			f.nodes = append(f.nodes, s.Nodes(f.grid))
			if s.Name == "Transit" {
				f.transit = s
			}
		}
		f.transitGrid = geo.NewGrid(benchTheta, f.transit.Bounds())
		f.transitNodes = f.transit.Nodes(f.transitGrid)
		for _, d := range workload.SampleQueries(f.transit, 10, 2) {
			if nd := dataset.NewNode(f.transitGrid, d); nd != nil {
				nd.ID = -1
				f.queries = append(f.queries, nd)
			}
			f.queryCells = append(f.queryCells, cellset.FromPoints(f.grid, d.Points))
		}
		fx = f
	})
	return fx
}

// --- Table I / Fig. 7: workload statistics -------------------------------

func BenchmarkTable1Stats(b *testing.B) {
	f := setup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range f.sources {
			_ = s.ComputeStats()
		}
	}
}

func BenchmarkFig7Heatmap(b *testing.B) {
	f := setup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		workload.Heatmap(f.transit, 48)
	}
}

// --- Fig. 8: index construction ------------------------------------------

func BenchmarkFig8Construction(b *testing.B) {
	f := setup()
	b.Run("DITS-L", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dits.Build(f.transitGrid, f.transitNodes, benchF)
		}
	})
	b.Run("QuadTree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			quadtree.Build(benchTheta, f.transitNodes)
		}
	})
	b.Run("Rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtree.Build(8, f.transitNodes)
		}
	})
	b.Run("STS3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sts3.Build(f.transitNodes)
		}
	})
	b.Run("Josie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			josie.Build(f.transitNodes)
		}
	})
}

// --- Figs. 9-12: OJSP search ----------------------------------------------

func overlapSearchers(f *fixture, leafCap int) map[string]overlap.Searcher {
	return map[string]overlap.Searcher{
		"OverlapSearch": &overlap.DITSSearcher{Index: dits.Build(f.transitGrid, f.transitNodes, leafCap)},
		"Rtree":         &overlap.RtreeSearcher{Index: rtree.Build(8, f.transitNodes)},
		"Josie":         &overlap.JosieSearcher{Index: josie.Build(f.transitNodes)},
		"QuadTree":      &overlap.QuadtreeSearcher{Index: quadtree.Build(benchTheta, f.transitNodes)},
		"STS3":          &overlap.STS3Searcher{Index: sts3.Build(f.transitNodes)},
	}
}

func benchOverlap(b *testing.B, k int, leafCap int) {
	f := setup()
	for _, name := range []string{"OverlapSearch", "Rtree", "Josie", "QuadTree", "STS3"} {
		s := overlapSearchers(f, leafCap)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.TopK(f.queries[i%len(f.queries)], k)
			}
		})
	}
}

func BenchmarkFig9OverlapK(b *testing.B)  { benchOverlap(b, benchK, benchF) }
func BenchmarkFig11OverlapQ(b *testing.B) { benchOverlap(b, benchK, benchF) }

func BenchmarkFig10OverlapTheta(b *testing.B) {
	f := setup()
	for _, theta := range []int{10, 12, 14} {
		g := geo.NewGrid(theta, f.transit.Bounds())
		nodes := f.transit.Nodes(g)
		s := &overlap.DITSSearcher{Index: dits.Build(g, nodes, benchF)}
		var qs []*dataset.Node
		for _, d := range workload.SampleQueries(f.transit, 10, 2) {
			if nd := dataset.NewNode(g, d); nd != nil {
				nd.ID = -1
				qs = append(qs, nd)
			}
		}
		b.Run(itoa2("theta", theta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.TopK(qs[i%len(qs)], benchK)
			}
		})
	}
}

func BenchmarkFig12OverlapF(b *testing.B) {
	f := setup()
	for _, leafCap := range []int{10, 30, 50} {
		s := &overlap.DITSSearcher{Index: dits.Build(f.transitGrid, f.transitNodes, leafCap)}
		b.Run(itoa2("f", leafCap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.TopK(f.queries[i%len(f.queries)], benchK)
			}
		})
	}
}

// --- Figs. 13-14, 19-20: federation communication -------------------------

func buildCenter(f *fixture, opts federation.Options) *federation.Center {
	center := federation.NewCenter(f.grid, opts)
	for i, s := range f.sources {
		idx := dits.Build(f.grid, f.nodes[i], benchF)
		srv := federation.NewSourceServerWithGrid(s.Name, idx)
		center.Register(srv.Summary(), &transport.InProc{
			Name: s.Name, Handler: srv.Handler(), Metrics: center.Metrics,
		})
	}
	return center
}

func BenchmarkFig13OverlapComm(b *testing.B) {
	f := setup()
	center := buildCenter(f, federation.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := center.OverlapSearch(context.Background(), f.queryCells[i%len(f.queryCells)], benchK); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(center.Metrics.Bytes())/float64(b.N), "bytes/op")
}

func BenchmarkFig14OverlapTransmission(b *testing.B) {
	f := setup()
	center := buildCenter(f, federation.DefaultOptions())
	if _, err := center.OverlapSearch(context.Background(), f.queryCells[0], benchK); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = center.Metrics.TransmissionTime(125_000)
	}
}

func BenchmarkFig19CoverageComm(b *testing.B) {
	f := setup()
	center := buildCenter(f, federation.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := center.CoverageSearch(context.Background(), f.queryCells[i%len(f.queryCells)], benchDelta, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(center.Metrics.Bytes())/float64(b.N), "bytes/op")
}

func BenchmarkFig20CoverageTransmission(b *testing.B) {
	f := setup()
	center := buildCenter(f, federation.DefaultOptions())
	if _, err := center.CoverageSearch(context.Background(), f.queryCells[0], benchDelta, 5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = center.Metrics.TransmissionTime(125_000)
	}
}

// --- Figs. 15-18: CJSP search ----------------------------------------------

func coverageSearchers(f *fixture) map[string]coverage.Searcher {
	idx := dits.Build(f.transitGrid, f.transitNodes, benchF)
	return map[string]coverage.Searcher{
		"CoverageSearch": &coverage.DITSSearcher{Index: idx},
		"SG+DITS":        &coverage.SGDITS{Index: idx},
		"SG":             &coverage.SG{Nodes: f.transitNodes},
	}
}

func benchCoverage(b *testing.B, delta float64, k int) {
	f := setup()
	for _, name := range []string{"CoverageSearch", "SG+DITS", "SG"} {
		s := coverageSearchers(f)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Search(f.queries[i%len(f.queries)], delta, k)
			}
		})
	}
}

func BenchmarkFig15CoverageK(b *testing.B)     { benchCoverage(b, benchDelta, benchK) }
func BenchmarkFig17CoverageQ(b *testing.B)     { benchCoverage(b, benchDelta, benchK) }
func BenchmarkFig18CoverageDelta(b *testing.B) { benchCoverage(b, 20, benchK) }

func BenchmarkFig16CoverageTheta(b *testing.B) {
	f := setup()
	for _, theta := range []int{10, 12, 14} {
		g := geo.NewGrid(theta, f.transit.Bounds())
		nodes := f.transit.Nodes(g)
		s := &coverage.DITSSearcher{Index: dits.Build(g, nodes, benchF)}
		var qs []*dataset.Node
		for _, d := range workload.SampleQueries(f.transit, 10, 2) {
			if nd := dataset.NewNode(g, d); nd != nil {
				nd.ID = -1
				qs = append(qs, nd)
			}
		}
		b.Run(itoa2("theta", theta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Search(qs[i%len(qs)], benchDelta, benchK)
			}
		})
	}
}

// --- Figs. 21-22: index maintenance ---------------------------------------

func BenchmarkFig21Inserts(b *testing.B) {
	f := setup()
	fresh := func() *dataset.Node {
		return dataset.NewNodeFromCells(1_000_000, "synthetic", slices.Clone(f.transitNodes[0].Cells))
	}
	b.Run("DITS", func(b *testing.B) {
		idx := dits.Build(f.transitGrid, f.transitNodes, benchF)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nd := fresh()
			nd.ID = 1_000_000 + i
			if err := idx.Insert(nd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("STS3", func(b *testing.B) {
		idx := sts3.Build(f.transitNodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nd := fresh()
			nd.ID = 1_000_000 + i
			idx.Insert(nd)
		}
	})
	b.Run("Rtree", func(b *testing.B) {
		idx := rtree.Build(8, f.transitNodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nd := fresh()
			nd.ID = 1_000_000 + i
			idx.Insert(nd)
		}
	})
	b.Run("QuadTree", func(b *testing.B) {
		idx := quadtree.Build(benchTheta, f.transitNodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nd := fresh()
			nd.ID = 1_000_000 + i
			idx.Insert(nd)
		}
	})
	b.Run("Josie", func(b *testing.B) {
		idx := josie.Build(f.transitNodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nd := fresh()
			nd.ID = 1_000_000 + i
			idx.Insert(nd)
		}
	})
}

func BenchmarkFig22Updates(b *testing.B) {
	f := setup()
	variant := func(i int) *dataset.Node {
		src := f.transitNodes[i%len(f.transitNodes)]
		return dataset.NewNodeFromCells(src.ID, src.Name, slices.Clone(f.transitNodes[(i+1)%len(f.transitNodes)].Cells))
	}
	b.Run("DITS", func(b *testing.B) {
		idx := dits.Build(f.transitGrid, f.transitNodes, benchF)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := idx.Update(variant(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("STS3", func(b *testing.B) {
		idx := sts3.Build(f.transitNodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.Update(variant(i))
		}
	})
	b.Run("Rtree", func(b *testing.B) {
		idx := rtree.Build(8, f.transitNodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.Update(variant(i))
		}
	})
	b.Run("QuadTree", func(b *testing.B) {
		idx := quadtree.Build(benchTheta, f.transitNodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.Update(variant(i))
		}
	})
	b.Run("Josie", func(b *testing.B) {
		idx := josie.Build(f.transitNodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.Update(variant(i))
		}
	})
}

// --- Full harness passes (kept cheap via tiny scale) -----------------------

// BenchmarkHarnessTable2 exercises the bench package itself so the harness
// is covered by `go test -bench`.
func BenchmarkHarnessTable2(b *testing.B) {
	cfg := bench.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run("table2", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa2(prefix string, v int) string {
	return prefix + "=" + string(rune('0'+v/10)) + string(rune('0'+v%10))
}

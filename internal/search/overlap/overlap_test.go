package overlap

import (
	"math/rand"
	"slices"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/index/josie"
	"dits/internal/index/quadtree"
	"dits/internal/index/rtree"
	"dits/internal/index/sts3"
)

const theta = 7

func randomNodes(rng *rand.Rand, n int) []*dataset.Node {
	side := 1 << theta
	nodes := make([]*dataset.Node, 0, n)
	for i := 0; i < n; i++ {
		cx, cy := rng.Intn(side), rng.Intn(side)
		m := 1 + rng.Intn(25)
		ids := make([]uint64, m)
		for j := range ids {
			x := clamp(cx+rng.Intn(13)-6, 0, side-1)
			y := clamp(cy+rng.Intn(13)-6, 0, side-1)
			ids[j] = geo.ZEncode(uint32(x), uint32(y))
		}
		nodes = append(nodes, dataset.NewNodeFromCells(i, "", cellset.New(ids...)))
	}
	return nodes
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func grid() geo.Grid {
	side := float64(int64(1) << theta)
	return geo.NewGrid(theta, geo.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side})
}

// allSearchers builds every searcher over the same corpus.
func allSearchers(nodes []*dataset.Node, f int) []Searcher {
	return []Searcher{
		&DITSSearcher{Index: dits.Build(grid(), nodes, f)},
		&QuadtreeSearcher{Index: quadtree.Build(theta, nodes)},
		&RtreeSearcher{Index: rtree.Build(8, nodes)},
		&STS3Searcher{Index: sts3.Build(nodes)},
		&JosieSearcher{Index: josie.Build(nodes)},
	}
}

func overlapsOf(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Overlap
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAllSearchersAgreeWithOracle is the central OJSP exactness property:
// every algorithm returns the same ranked overlap values as brute force,
// and every reported overlap is the true intersection size of that ID.
func TestAllSearchersAgreeWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes := randomNodes(rng, 400)
	byID := map[int]*dataset.Node{}
	for _, n := range nodes {
		byID[n.ID] = n
	}
	oracle := &BruteForce{Nodes: nodes}
	searchers := allSearchers(nodes, 8)

	for trial := 0; trial < 60; trial++ {
		q := randomNodes(rng, 1)[0]
		q.ID = -1
		for _, k := range []int{1, 5, 10, 40} {
			want := overlapsOf(oracle.TopK(q, k))
			for _, s := range searchers {
				got := s.TopK(q, k)
				if !equalInts(overlapsOf(got), want) {
					t.Fatalf("trial %d k=%d: %s returned overlaps %v, oracle %v",
						trial, k, s.Name(), overlapsOf(got), want)
				}
				for _, r := range got {
					if exact := byID[r.ID].Cells.IntersectCount(q.Cells); exact != r.Overlap {
						t.Fatalf("%s: dataset %d overlap %d, exact %d",
							s.Name(), r.ID, r.Overlap, exact)
					}
				}
			}
		}
	}
}

func TestNoBoundsAblationIsExact(t *testing.T) {
	// The DisableBounds ablation must return the same answers, only slower.
	rng := rand.New(rand.NewSource(17))
	nodes := randomNodes(rng, 300)
	idx := dits.Build(grid(), nodes, 8)
	with := &DITSSearcher{Index: idx}
	without := &DITSSearcher{Index: idx, DisableBounds: true}
	if with.Name() == without.Name() {
		t.Error("ablation variant should be distinguishable by name")
	}
	for trial := 0; trial < 40; trial++ {
		q := randomNodes(rng, 1)[0]
		q.ID = -1
		a := overlapsOf(with.TopK(q, 10))
		b := overlapsOf(without.TopK(q, 10))
		if !equalInts(a, b) {
			t.Fatalf("trial %d: bounds on %v, bounds off %v", trial, a, b)
		}
	}
}

func TestSearchersLeafCapacitySweep(t *testing.T) {
	// Fig. 12 varies f; exactness must hold for every capacity.
	rng := rand.New(rand.NewSource(2))
	nodes := randomNodes(rng, 200)
	oracle := &BruteForce{Nodes: nodes}
	for _, f := range []int{1, 2, 10, 30, 50} {
		s := &DITSSearcher{Index: dits.Build(grid(), nodes, f)}
		for trial := 0; trial < 20; trial++ {
			q := randomNodes(rng, 1)[0]
			q.ID = -1
			want := overlapsOf(oracle.TopK(q, 10))
			if got := overlapsOf(s.TopK(q, 10)); !equalInts(got, want) {
				t.Fatalf("f=%d trial %d: overlaps %v, want %v", f, trial, got, want)
			}
		}
	}
}

func TestEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nodes := randomNodes(rng, 50)
	q := randomNodes(rng, 1)[0]
	for _, s := range allSearchers(nodes, 4) {
		if got := s.TopK(nil, 5); got != nil {
			t.Errorf("%s: TopK(nil) = %v, want nil", s.Name(), got)
		}
		if got := s.TopK(q, 0); got != nil {
			t.Errorf("%s: TopK(k=0) = %v, want nil", s.Name(), got)
		}
		if got := s.TopK(q, 10000); len(got) > 50 {
			t.Errorf("%s: k larger than corpus returned %d results", s.Name(), len(got))
		}
		if s.Name() == "" {
			t.Error("searcher must be named")
		}
	}
	// A query entirely outside the data space overlaps nothing.
	far := dataset.NewNodeFromCells(-1, "", cellset.New(geo.ZEncode(1<<12, 1<<12)))
	for _, s := range allSearchers(nodes, 4) {
		if got := s.TopK(far, 5); len(got) != 0 {
			t.Errorf("%s: disjoint query returned %v", s.Name(), got)
		}
	}
}

func TestZeroOverlapExcluded(t *testing.T) {
	a := dataset.NewNodeFromCells(1, "a", cellset.New(geo.ZEncode(0, 0)))
	b := dataset.NewNodeFromCells(2, "b", cellset.New(geo.ZEncode(50, 50)))
	nodes := []*dataset.Node{a, b}
	q := dataset.NewNodeFromCells(-1, "", cellset.New(geo.ZEncode(0, 0)))
	for _, s := range allSearchers(nodes, 4) {
		got := s.TopK(q, 5)
		if len(got) != 1 || got[0].ID != 1 || got[0].Overlap != 1 {
			t.Errorf("%s: got %v, want only dataset 1", s.Name(), got)
		}
	}
}

func TestRankingDeterministicTieBreak(t *testing.T) {
	// Three datasets with identical overlap: smaller IDs win.
	q := dataset.NewNodeFromCells(-1, "", cellset.New(geo.ZEncode(3, 3)))
	var nodes []*dataset.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, dataset.NewNodeFromCells(10-i, "", cellset.New(geo.ZEncode(3, 3))))
	}
	s := &BruteForce{Nodes: nodes}
	got := s.TopK(q, 2)
	if len(got) != 2 || got[0].ID != 8 || got[1].ID != 9 {
		t.Errorf("tie-break wrong: %v", got)
	}
}

// TestTopKMatchesSort: in whatever order a multiset of results with tied
// overlaps and tied IDs is offered, TopK holds what sorting the positive
// ones by Better and truncating to k gives. A k <= 0 holds nothing, and a
// k off the wire does not pre-allocate.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		rs := make([]Result, n)
		var sorted []Result
		for i := range rs {
			rs[i] = Result{ID: rng.Intn(n/2 + 1), Overlap: rng.Intn(5)}
			if rs[i].Overlap > 0 {
				sorted = append(sorted, rs[i])
			}
		}
		SortResults(sorted)
		for _, k := range []int{-1, 0, 1, 3, n, n + 5} {
			rng.Shuffle(n, func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
			tk := NewTopK(k)
			for _, r := range rs {
				tk.Offer(r)
			}
			want := sorted[:max(0, min(k, len(sorted)))]
			if got := tk.Sorted(); !slices.Equal(got, want) {
				t.Fatalf("trial %d k=%d: %v, want %v", trial, k, got, want)
			}
			th := 0
			if k > 0 && len(want) == k {
				th = want[k-1].Overlap
			}
			if tk.Threshold() != th {
				t.Fatalf("trial %d k=%d: threshold %d, want %d", trial, k, tk.Threshold(), th)
			}
		}
	}
	if c := cap(NewTopK(1 << 30).h); c > 1024 {
		t.Fatalf("NewTopK(1<<30) allocated %d slots", c)
	}
}

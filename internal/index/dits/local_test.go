package dits

import (
	"math/rand"
	"slices"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

// randomNodes builds n random dataset nodes on a 2^theta grid, each with a
// cluster of cells so MBRs are realistic.
func randomNodes(rng *rand.Rand, n, theta int) []*dataset.Node {
	side := 1 << uint(theta)
	nodes := make([]*dataset.Node, 0, n)
	for i := 0; i < n; i++ {
		cx, cy := rng.Intn(side), rng.Intn(side)
		m := 1 + rng.Intn(20)
		ids := make([]uint64, m)
		for j := range ids {
			x := clampInt(cx+rng.Intn(9)-4, 0, side-1)
			y := clampInt(cy+rng.Intn(9)-4, 0, side-1)
			ids[j] = geo.ZEncode(uint32(x), uint32(y))
		}
		nodes = append(nodes, dataset.NewNodeFromCells(i, "", cellset.New(ids...)))
	}
	return nodes
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func testGrid(theta int) geo.Grid {
	side := float64(int64(1) << uint(theta))
	return geo.NewGrid(theta, geo.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side})
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 5, 31, 100, 500} {
		for _, f := range []int{1, 2, 10, 30} {
			l := Build(testGrid(8), randomNodes(rng, n, 8), f)
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("n=%d f=%d: %v", n, f, err)
			}
			if l.Len() != n {
				t.Fatalf("n=%d f=%d: Len = %d", n, f, l.Len())
			}
			if got := len(l.All()); got != n {
				t.Fatalf("n=%d f=%d: All = %d nodes", n, f, got)
			}
		}
	}
}

func TestBuildDefaultCapacity(t *testing.T) {
	l := Build(testGrid(4), nil, 0)
	if l.F != DefaultLeafCapacity {
		t.Errorf("F = %d, want %d", l.F, DefaultLeafCapacity)
	}
}

func TestBuildDuplicateIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build with duplicate IDs should panic")
		}
	}()
	a := dataset.NewNodeFromCells(1, "", cellset.New(1))
	b := dataset.NewNodeFromCells(1, "", cellset.New(2))
	Build(testGrid(4), []*dataset.Node{a, b}, 2)
}

func TestBuildIdenticalPivots(t *testing.T) {
	// All datasets in the same cell: median split must still terminate.
	nodes := make([]*dataset.Node, 50)
	for i := range nodes {
		nodes[i] = dataset.NewNodeFromCells(i, "", cellset.New(geo.ZEncode(3, 3)))
	}
	l := Build(testGrid(4), nodes, 4)
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapBoundsLemmas(t *testing.T) {
	// Lemma 2 (UB) and Lemma 3 (LB): for every leaf and random query,
	// LB <= max per-dataset intersection <= ... and per-dataset
	// intersection ∈ [LB, UB] for all datasets in the leaf.
	rng := rand.New(rand.NewSource(2))
	l := Build(testGrid(6), randomNodes(rng, 200, 6), 8)
	var scratch LeafScratch
	for trial := 0; trial < 100; trial++ {
		q := randomNodes(rng, 1, 6)[0]
		lq := q.CompactCells()
		l.Root.visitLeaves(func(leaf *TreeNode) {
			lb, ub := leafBounds(leaf, lq)
			if lb > ub {
				t.Fatalf("lb %d > ub %d", lb, ub)
			}
			counts := allCounts(leaf, lq, &scratch)
			for i, c := range leaf.Children {
				exact := c.Cells.IntersectCount(q.Cells)
				if counts[i] != exact {
					t.Fatalf("OverlapCounts[%d] = %d, exact = %d", i, counts[i], exact)
				}
				if exact < lb || exact > ub {
					t.Fatalf("dataset %d: intersection %d outside [lb=%d, ub=%d]",
						c.ID, exact, lb, ub)
				}
			}
		})
	}
}

func TestOverlapBoundsFig5Example(t *testing.T) {
	// Fig. 5 of the paper: a leaf holding datasets with cells {9,11,12,13}
	// and {7,9,12,13}; query {3, 9}. Cell 9 is in both children so it
	// counts toward LB; cell 3 is absent: UB = 1, LB = 1.
	a := dataset.NewNodeFromCells(1, "", cellset.New(9, 11, 12, 13))
	b := dataset.NewNodeFromCells(2, "", cellset.New(7, 9, 12, 13))
	l := Build(testGrid(2), []*dataset.Node{a, b}, 2)
	leaf := l.Root
	if !leaf.IsLeaf() {
		t.Fatal("expected single leaf")
	}
	q := cellset.FromSet(cellset.New(3, 9))
	lb, ub := leafBounds(leaf, q)
	if lb != 1 || ub != 1 {
		t.Errorf("bounds = (lb=%d, ub=%d), want (1, 1)", lb, ub)
	}
	// The one entry point reads the same bound off its intersection: the
	// leaf survives a threshold of 1 and is pruned at 2.
	var scratch LeafScratch
	p := cellset.NewProbe(q)
	defer p.Release()
	if got := leaf.OverlapCounts(p, 1, &scratch); !slices.Equal(got, []int{1, 1}) {
		t.Errorf("OverlapCounts at threshold 1 = %v, want [1 1]", got)
	}
	if got := leaf.OverlapCounts(p, 2, &scratch); got != nil {
		t.Errorf("OverlapCounts at threshold 2 = %v, want the leaf pruned", got)
	}
}

func TestRawGridRectRoundTrip(t *testing.T) {
	src := &dataset.Source{Name: "s", Datasets: []*dataset.Dataset{
		{ID: 0, Points: []geo.Point{geo.Pt(0.2, 0.3), geo.Pt(3.7, 3.1)}},
	}}
	g := geo.NewGrid(4, src.Bounds())
	l := Build(g, src.Nodes(g), 8)
	raw := l.RawRect(l.Root.Rect)
	if raw.IsEmpty() {
		t.Fatal("raw rect empty")
	}
	// Every point of the source must fall inside the raw root rect.
	for _, p := range src.Datasets[0].Points {
		if !raw.ContainsRect(geo.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}) {
			t.Errorf("raw root rect %v does not contain %v", raw, p)
		}
	}
	if l.RawRect(geo.EmptyRect) != geo.EmptyRect {
		t.Error("RawRect(empty) should be empty")
	}
}

func TestMemoryAndShapeAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := Build(testGrid(6), randomNodes(rng, 300, 6), 10)
	if l.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
	if l.NumTreeNodes() < 30 {
		t.Errorf("NumTreeNodes = %d, unexpectedly small", l.NumTreeNodes())
	}
	if l.Height() < 5 {
		t.Errorf("Height = %d, unexpectedly small", l.Height())
	}
	if l.Get(0) == nil || l.Get(999999) != nil {
		t.Error("Get misbehaves")
	}
}

package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dits/internal/cellset"
	"dits/internal/geo"
)

func grid4() geo.Grid {
	return geo.NewGrid(2, geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4})
}

func TestNewNode(t *testing.T) {
	g := grid4()
	d := &Dataset{ID: 7, Name: "route-7", Points: []geo.Point{
		geo.Pt(1.5, 2.5), geo.Pt(1.5, 3.5), // cells 9 and 11: coords (1,2),(1,3)
	}}
	n := NewNode(g, d)
	if n == nil {
		t.Fatal("NewNode returned nil for non-empty dataset")
	}
	if n.ID != 7 || n.Name != "route-7" {
		t.Errorf("identity not carried: %+v", n)
	}
	if !slices.Equal(n.Cells, cellset.Set{9, 11}) {
		t.Errorf("Cells = %v, want {9,11}", n.Cells)
	}
	want := geo.Rect{MinX: 1, MinY: 2, MaxX: 1, MaxY: 3}
	if n.Rect != want {
		t.Errorf("Rect = %v, want %v", n.Rect, want)
	}
	if n.O != geo.Pt(1, 2.5) {
		t.Errorf("pivot = %v, want (1,2.5)", n.O)
	}
	if math.Abs(n.R-0.5) > 1e-12 {
		t.Errorf("radius = %v, want 0.5", n.R)
	}
	if n.Coverage() != 2 {
		t.Errorf("Coverage = %d, want 2", n.Coverage())
	}
}

func TestNewNodeEmpty(t *testing.T) {
	if n := NewNode(grid4(), &Dataset{ID: 1}); n != nil {
		t.Errorf("empty dataset should yield nil node, got %v", n)
	}
	if n := NewNodeFromCells(1, "x", nil); n != nil {
		t.Errorf("empty cells should yield nil node, got %v", n)
	}
}

func TestDistBoundsBracketTrueDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		a := randomNode(rng, trial*2)
		b := randomNode(rng, trial*2+1)
		lb, ub := a.DistBounds(b)
		if lb < 0 {
			t.Fatalf("lb = %v < 0", lb)
		}
		if lb > ub+1e-9 {
			t.Fatalf("lb %v > ub %v", lb, ub)
		}
		d := cellset.DistNaive(a.Cells, b.Cells)
		if d < lb-1e-9 || d > ub+1e-9 {
			t.Fatalf("trial %d: true dist %v outside [%v, %v]\na=%v\nb=%v",
				trial, d, lb, ub, a.Cells, b.Cells)
		}
	}
}

func TestDistBoundsPaperExample(t *testing.T) {
	// Example 6 of the paper: centers 5 apart, radii sqrt2 each; the true
	// distance sqrt5 lies within [5−2·sqrt2, 5+2·sqrt2].
	a := &Node{O: geo.Pt(1, 1), R: math.Sqrt2}
	b := &Node{O: geo.Pt(4, 5), R: math.Sqrt2}
	lb, ub := a.DistBounds(b)
	if math.Abs(lb-(5-2*math.Sqrt2)) > 1e-12 {
		t.Errorf("lb = %v, want %v", lb, 5-2*math.Sqrt2)
	}
	if math.Abs(ub-(5+2*math.Sqrt2)) > 1e-12 {
		t.Errorf("ub = %v, want %v", ub, 5+2*math.Sqrt2)
	}
}

func TestMerge(t *testing.T) {
	a := NewNodeFromCells(1, "", cellset.New(geo.ZEncode(0, 0), geo.ZEncode(1, 1)))
	b := NewNodeFromCells(2, "", cellset.New(geo.ZEncode(3, 3)))
	m := a.Merge(b)
	if m.Coverage() != 3 {
		t.Errorf("merged cells = %d, want 3", m.Coverage())
	}
	if m.CompactCells().Len() != 3 {
		t.Errorf("merged compact cells = %d, want 3", m.CompactCells().Len())
	}
	if m.Cells != nil {
		t.Error("merged node should carry the container form only")
	}
	if got, want := m.String(), fmt.Sprintf("Node{id=1, |S|=3, rect=%v}", m.Rect); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if !m.Rect.ContainsRect(a.Rect) || !m.Rect.ContainsRect(b.Rect) {
		t.Error("merged rect should contain both inputs")
	}
	if m.O != m.Rect.Center() {
		t.Error("merged pivot should be rect center")
	}
	if got := a.Merge(nil); got != a {
		t.Error("Merge(nil) should return receiver")
	}
	var nilNode *Node
	if got := nilNode.Merge(b); got != b {
		t.Error("nil.Merge(b) should return b")
	}
}

func TestSourceStats(t *testing.T) {
	s := &Source{Name: "test", Datasets: []*Dataset{
		{ID: 0, Points: []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)}},
		{ID: 1, Points: []geo.Point{geo.Pt(2, 2)}},
		{ID: 2}, // empty
	}}
	st := s.ComputeStats()
	if st.NumDatasets != 3 || st.NumPoints != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.MinSize != 0 || st.MaxSize != 2 {
		t.Errorf("sizes = [%d,%d], want [0,2]", st.MinSize, st.MaxSize)
	}
	want := geo.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	if st.Bounds != want {
		t.Errorf("bounds = %v, want %v", st.Bounds, want)
	}
	nodes := s.Nodes(grid4())
	if len(nodes) != 2 {
		t.Errorf("Nodes dropped empties wrong: got %d, want 2", len(nodes))
	}
}

func randomNode(rng *rand.Rand, id int) *Node {
	n := 1 + rng.Intn(30)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = geo.ZEncode(uint32(rng.Intn(128)), uint32(rng.Intn(128)))
	}
	return NewNodeFromCells(id, "", cellset.New(ids...))
}

// randomSource builds n datasets of up to 200 points in [0,100)², every
// fifth one empty, including the first and the last.
func randomSource(rng *rand.Rand, n int) *Source {
	s := &Source{Name: "random"}
	for i := range n {
		d := &Dataset{ID: i, Name: fmt.Sprint("d", i)}
		if i%5 != 0 && i != n-1 {
			for range 1 + rng.Intn(200) {
				d.Points = append(d.Points, geo.Pt(rng.Float64()*100, rng.Float64()*100))
			}
		}
		s.Datasets = append(s.Datasets, d)
	}
	return s
}

// TestNewNodeMBRMatchesBounds checks that the MBR NewNode keeps while
// gridding is the one Set.Bounds decodes from the same cells, and that the
// node is the one NewNodeFromCells builds from them.
func TestNewNodeMBRMatchesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := geo.NewGrid(10, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100})
	for _, d := range randomSource(rng, 60).Datasets {
		n := NewNode(g, d)
		if len(d.Points) == 0 {
			if n != nil {
				t.Fatalf("dataset %d: empty dataset yields %v", d.ID, n)
			}
			continue
		}
		cells := cellset.FromPoints(g, d.Points)
		minX, minY, maxX, maxY, _ := cells.Bounds()
		want := geo.Rect{MinX: float64(minX), MinY: float64(minY), MaxX: float64(maxX), MaxY: float64(maxY)}
		if n.Rect != want {
			t.Fatalf("dataset %d: Rect %v, Set.Bounds %v", d.ID, n.Rect, want)
		}
		if !reflect.DeepEqual(n, NewNodeFromCells(d.ID, d.Name, cells)) {
			t.Fatalf("dataset %d: NewNode and NewNodeFromCells differ", d.ID)
		}
	}
}

// TestSourceNodesMatchesSequential pins the parallel gridding to the
// per-dataset loop: the same nodes in dataset order, empty datasets
// skipped, whatever GOMAXPROCS is (CI runs it under -cpu 1,2,4).
func TestSourceNodesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := geo.NewGrid(10, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100})
	for _, n := range []int{0, 1, nodesBlock, nodesBlock + 1, 7*nodesBlock + 3} {
		src := randomSource(rng, n)
		var want []*Node
		for _, d := range src.Datasets {
			if nd := NewNode(g, d); nd != nil {
				want = append(want, nd)
			}
		}
		got := src.Nodes(g)
		if len(got) != len(want) {
			t.Fatalf("%d datasets: %d nodes, want %d", n, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%d datasets: node %d is dataset %d, want %d", n, i, got[i].ID, want[i].ID)
			}
		}
	}
}

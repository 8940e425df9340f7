package rtree

import (
	"math/rand"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

func randomNodes(rng *rand.Rand, n, theta int) []*dataset.Node {
	side := 1 << uint(theta)
	nodes := make([]*dataset.Node, 0, n)
	for i := 0; i < n; i++ {
		cx, cy := rng.Intn(side), rng.Intn(side)
		m := 1 + rng.Intn(12)
		ids := make([]uint64, m)
		for j := range ids {
			x := min(side-1, cx+rng.Intn(6))
			y := min(side-1, cy+rng.Intn(6))
			ids[j] = geo.ZEncode(uint32(x), uint32(y))
		}
		nodes = append(nodes, dataset.NewNodeFromCells(i, "", cellset.New(ids...)))
	}
	return nodes
}

func TestBuildAndInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 9, 100, 400} {
		for _, m := range []int{4, 8, 16} {
			tr := Build(m, randomNodes(rng, n, 7))
			if len(tr.leafOf) != n {
				t.Fatalf("n=%d M=%d: Size = %d", n, m, len(tr.leafOf))
			}
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("n=%d M=%d: %v", n, m, err)
			}
			if got := len(tr.All()); got != n {
				t.Fatalf("n=%d M=%d: All = %d", n, m, got)
			}
		}
	}
}

func TestSearchIntersectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nodes := randomNodes(rng, 250, 7)
	tr := Build(8, nodes)
	for trial := 0; trial < 150; trial++ {
		x, y := rng.Float64()*128, rng.Float64()*128
		q := geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*30, MaxY: y + rng.Float64()*30}
		got := make(map[int]bool)
		for _, d := range tr.SearchIntersect(q) {
			got[d.ID] = true
		}
		for _, d := range nodes {
			want := d.Rect.Intersects(q)
			if got[d.ID] != want {
				t.Fatalf("trial %d: dataset %d intersect=%v reported=%v", trial, d.ID, want, got[d.ID])
			}
		}
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nodes := randomNodes(rng, 200, 7)
	tr := Build(8, nodes)

	// Delete half in random order.
	perm := rng.Perm(200)
	for _, idx := range perm[:100] {
		if !tr.Delete(nodes[idx].ID) {
			t.Fatalf("Delete(%d) returned false", nodes[idx].ID)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", nodes[idx].ID, err)
		}
	}
	if len(tr.leafOf) != 100 {
		t.Fatalf("Size = %d, want 100", len(tr.leafOf))
	}
	if tr.Delete(123456) {
		t.Error("Delete of unknown ID should return false")
	}

	// Update the survivors.
	for _, idx := range perm[100:] {
		repl := randomNodes(rng, 1, 7)[0]
		repl.ID = nodes[idx].ID
		tr.Update(repl)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after update %d: %v", repl.ID, err)
		}
	}
	if len(tr.leafOf) != 100 {
		t.Fatalf("Size after updates = %d, want 100", len(tr.leafOf))
	}

	// Delete everything.
	for _, idx := range perm[100:] {
		tr.Delete(nodes[idx].ID)
	}
	if len(tr.leafOf) != 0 {
		t.Fatalf("Size = %d after deleting all", len(tr.leafOf))
	}
	if got := tr.SearchIntersect(geo.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}); len(got) != 0 {
		t.Fatalf("empty tree returned %d results", len(got))
	}
}

func TestHeightGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := Build(4, randomNodes(rng, 300, 7))
	height := 1
	for n := tr.root; !n.leaf; n = n.children[0] {
		height++
	}
	if height < 3 {
		t.Errorf("height = %d, expected >= 3 for 300 entries with M=4", height)
	}
	if tr.NumNodes() < 75 {
		t.Errorf("NumNodes = %d, unexpectedly small", tr.NumNodes())
	}
	if tr.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// checkInvariants validates MBR containment, parent pointers, and leaf
// back-pointers.
func (t *Tree) checkInvariants() error {
	return t.check(t.root, nil)
}

func (t *Tree) check(n *node, parent *node) error {
	if n.parent != parent {
		return errBadParent
	}
	if n.leaf {
		for _, d := range n.data {
			if !n.rect.ContainsRect(d.Rect) {
				return errBadRect
			}
			if t.leafOf[d.ID] != n {
				return errStaleLeaf
			}
		}
		return nil
	}
	if len(n.children) == 0 {
		return errEmptyInternal
	}
	for _, c := range n.children {
		if !n.rect.ContainsRect(c.rect) {
			return errBadRect
		}
		if err := t.check(c, n); err != nil {
			return err
		}
	}
	return nil
}

type treeError string

func (e treeError) Error() string { return string(e) }

const (
	errBadParent     = treeError("rtree: bad parent pointer")
	errBadRect       = treeError("rtree: node rect does not contain entry")
	errStaleLeaf     = treeError("rtree: stale leafOf entry")
	errEmptyInternal = treeError("rtree: empty internal node")
)

package quadtree

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
		m := 1 + rng.Intn(15)
		ids := make([]uint64, m)
		for j := range ids {
			ids[j] = geo.ZEncode(uint32(rng.Intn(side)), uint32(rng.Intn(side)))
		}
		nodes = append(nodes, dataset.NewNodeFromCells(i, "", cellset.New(ids...)))
	}
	return nodes
}

func oracleCounts(nodes []*dataset.Node, q cellset.Set) map[int]int {
	counts := make(map[int]int)
	for _, n := range nodes {
		if c := n.Cells.IntersectCount(q); c > 0 {
			counts[n.ID] = c
		}
	}
	return counts
}

func sameCounts(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestOverlapCountsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes := randomNodes(rng, 150, 6)
	tree := Build(6, nodes)
	for trial := 0; trial < 100; trial++ {
		q := randomNodes(rng, 1, 6)[0].Cells
		got := tree.OverlapCounts(q)
		want := oracleCounts(nodes, q)
		if !sameCounts(got, want) {
			t.Fatalf("trial %d: counts mismatch\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

func TestInsertDeleteUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nodes := randomNodes(rng, 60, 5)
	tree := Build(5, nodes[:40])
	live := append([]*dataset.Node(nil), nodes[:40]...)

	// Inserts.
	for _, n := range nodes[40:] {
		tree.Insert(n)
		live = append(live, n)
	}
	q := randomNodes(rng, 1, 5)[0].Cells
	if !sameCounts(tree.OverlapCounts(q), oracleCounts(live, q)) {
		t.Fatal("counts wrong after inserts")
	}

	// Updates.
	for i := 0; i < 20; i++ {
		idx := rng.Intn(len(live))
		repl := randomNodes(rng, 1, 5)[0]
		repl.ID = live[idx].ID
		tree.Update(repl)
		live[idx] = repl
	}
	if !sameCounts(tree.OverlapCounts(q), oracleCounts(live, q)) {
		t.Fatal("counts wrong after updates")
	}

	// Deletes.
	for i := 0; i < 20; i++ {
		idx := rng.Intn(len(live))
		tree.Delete(live[idx].ID)
		live = append(live[:idx], live[idx+1:]...)
	}
	if !sameCounts(tree.OverlapCounts(q), oracleCounts(live, q)) {
		t.Fatal("counts wrong after deletes")
	}
	if tree.Delete(99999); false {
		t.Fatal("unreachable")
	}
}

func TestSingleCellOverflow(t *testing.T) {
	// More than LeafCapacity datasets in the same cell: the leaf cannot
	// split below one cell and must simply hold them all.
	var nodes []*dataset.Node
	for i := 0; i < 20; i++ {
		nodes = append(nodes, dataset.NewNodeFromCells(i, "", cellset.New(geo.ZEncode(2, 2))))
	}
	tree := Build(3, nodes)
	counts := tree.OverlapCounts(cellset.New(geo.ZEncode(2, 2)))
	if len(counts) != 20 {
		t.Fatalf("got %d datasets, want 20", len(counts))
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("dataset %d count = %d, want 1", id, c)
		}
	}
}

func TestOverlapCountsEmptyQuery(t *testing.T) {
	tree := Build(4, randomNodes(rand.New(rand.NewSource(9)), 10, 4))
	if got := tree.OverlapCounts(nil); len(got) != 0 {
		t.Fatalf("empty query counts = %v", got)
	}
}

func TestAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nodes := randomNodes(rng, 50, 5)
	tree := Build(5, nodes)
	if tree.size == 0 {
		t.Error("Size should be positive")
	}
	if tree.NumNodes() == 0 {
		t.Error("NumNodes should be positive")
	}
	if tree.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
	nodes[0].Name = "hello"
	tree.Update(nodes[0])
	if tree.Name(nodes[0].ID) != "hello" {
		t.Error("Name not tracked")
	}
}

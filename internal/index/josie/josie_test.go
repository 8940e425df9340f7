package josie

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

func randomNodes(rng *rand.Rand, n int) []*dataset.Node {
	nodes := make([]*dataset.Node, 0, n)
	for i := 0; i < n; i++ {
		m := 1 + rng.Intn(25)
		ids := make([]uint64, m)
		for j := range ids {
			ids[j] = geo.ZEncode(uint32(rng.Intn(48)), uint32(rng.Intn(48)))
		}
		nodes = append(nodes, dataset.NewNodeFromCells(i, "", cellset.New(ids...)))
	}
	return nodes
}

// oracleTopK returns the exact top-k overlap values (sorted descending),
// which is the tie-insensitive notion of top-k correctness.
func oracleTopK(nodes []*dataset.Node, q cellset.Set, k int) []int {
	var overlaps []int
	for _, n := range nodes {
		if c := n.Cells.IntersectCount(q); c > 0 {
			overlaps = append(overlaps, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(overlaps)))
	if len(overlaps) > k {
		overlaps = overlaps[:k]
	}
	return overlaps
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

func TestTopKMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes := randomNodes(rng, 300)
	idx := Build(nodes)
	byID := map[int]*dataset.Node{}
	for _, n := range nodes {
		byID[n.ID] = n
	}
	for trial := 0; trial < 150; trial++ {
		q := randomNodes(rng, 1)[0].Cells
		for _, k := range []int{1, 3, 10, 50} {
			got := idx.TopK(q, k)
			if !equalInts(overlapsOf(got), oracleTopK(nodes, q, k)) {
				t.Fatalf("trial %d k=%d: overlaps %v, want %v",
					trial, k, overlapsOf(got), oracleTopK(nodes, q, k))
			}
			// Reported overlaps must be the true counts for those IDs.
			for _, r := range got {
				if exact := byID[r.ID].Cells.IntersectCount(q); exact != r.Overlap {
					t.Fatalf("trial %d: dataset %d overlap %d, exact %d",
						trial, r.ID, r.Overlap, exact)
				}
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	idx := Build(randomNodes(rand.New(rand.NewSource(2)), 10))
	if got := idx.TopK(nil, 5); got != nil {
		t.Errorf("empty query should return nil, got %v", got)
	}
	if got := idx.TopK(cellset.New(1), 0); got != nil {
		t.Errorf("k=0 should return nil, got %v", got)
	}
	if got := idx.TopK(cellset.New(geo.ZEncode(1000, 1000)), 5); len(got) != 0 {
		t.Errorf("disjoint query should return empty, got %v", got)
	}
}

func TestPrefixFilterFiresOnLongQueries(t *testing.T) {
	// A query of many tokens against datasets that all share a long prefix
	// of it: the filter must still return exact results.
	var cells []uint64
	for i := 0; i < 200; i++ {
		cells = append(cells, geo.ZEncode(uint32(i%48), uint32(i/48)))
	}
	q := cellset.New(cells...)
	var nodes []*dataset.Node
	for i := 0; i < 30; i++ {
		nodes = append(nodes, dataset.NewNodeFromCells(i, "", slices.Clone(q[:10+i*5])))
	}
	idx := Build(nodes)
	got := idx.TopK(q, 5)
	want := oracleTopK(nodes, q, 5)
	if !equalInts(overlapsOf(got), want) {
		t.Fatalf("overlaps %v, want %v", overlapsOf(got), want)
	}
}

func TestMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nodes := randomNodes(rng, 100)
	idx := Build(nodes[:60])
	live := append([]*dataset.Node(nil), nodes[:60]...)
	for _, n := range nodes[60:] {
		idx.Insert(n)
		live = append(live, n)
	}
	for i := 0; i < 25; i++ {
		at := rng.Intn(len(live))
		repl := randomNodes(rng, 1)[0]
		repl.ID = live[at].ID
		idx.Update(repl)
		live[at] = repl
	}
	for i := 0; i < 25; i++ {
		at := rng.Intn(len(live))
		idx.Delete(live[at].ID)
		live = append(live[:at], live[at+1:]...)
	}
	if len(idx.cells) != len(live) {
		t.Fatalf("%d datasets indexed, want %d", len(idx.cells), len(live))
	}
	q := randomNodes(rng, 1)[0].Cells
	got := idx.TopK(q, 10)
	if !equalInts(overlapsOf(got), oracleTopK(live, q, 10)) {
		t.Fatalf("after mutations: overlaps %v, want %v",
			overlapsOf(got), oracleTopK(live, q, 10))
	}
	if idx.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}

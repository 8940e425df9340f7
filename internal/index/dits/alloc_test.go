package dits

import (
	"math/rand"
	"slices"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

// bruteCounts is the oracle for OverlapCounts: |S_Q ∩ S_D| of every child
// of the leaf, counted over plain sets with no index involved.
func bruteCounts(leaf *TreeNode, q cellset.Set) []int {
	leaf.EnsureLoaded()
	in := make(map[uint64]bool, len(q))
	for _, c := range q {
		in[c] = true
	}
	counts := make([]int, len(leaf.Children))
	for i, d := range leaf.Children {
		for _, c := range d.FlatCells() {
			if in[c] {
				counts[i]++
			}
		}
	}
	return counts
}

// allCounts is OverlapCounts with nothing to prune against: a nil answer
// (no query cell in the leaf at all) reads as all-zero counts.
func allCounts(leaf *TreeNode, q *cellset.Compact, s *LeafScratch) []int {
	if counts := leaf.OverlapCounts(q, 0, s); counts != nil {
		return counts
	}
	return make([]int, len(leaf.Children))
}

// densePatch returns the side×side block of cells at (x0, y0): past
// sparseDensity cells per chunk, a query the chunk merge verifies.
func densePatch(x0, y0, side int) *dataset.Node {
	var ids []uint64
	for x := x0; x < x0+side; x++ {
		for y := y0; y < y0+side; y++ {
			ids = append(ids, geo.ZEncode(uint32(x), uint32(y)))
		}
	}
	return dataset.NewNodeFromCells(-1, "", cellset.New(ids...))
}

// TestAppendOverlapCountsParity: one scratch carried from leaf to leaf must
// give every leaf the counts a fresh scratch gives it, and the oracle's.
func TestAppendOverlapCountsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := Build(testGrid(8), randomNodes(rng, 300, 8), 10)
	for _, q := range []*dataset.Node{randomNodes(rng, 1, 8)[0], densePatch(90, 90, 40)} {
		lq := q.CompactCells()
		var scratch LeafScratch
		l.Root.visitLeaves(func(n *TreeNode) {
			got := allCounts(n, lq, &scratch)
			if want := allCounts(n, lq, new(LeafScratch)); !slices.Equal(got, want) {
				t.Fatalf("reused scratch diverged: %v != %v", got, want)
			}
			if want := bruteCounts(n, q.Cells); !slices.Equal(got, want) {
				t.Fatalf("OverlapCounts = %v, brute force = %v", got, want)
			}
		})
	}
}

// TestAppendOverlapCountsZeroAlloc: with a warm scratch, OverlapCounts —
// the executor's inner loop — must not allocate on either of its passes:
// the rank pass (sparse query) and the chunk merge (dense query).
func TestAppendOverlapCountsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := Build(testGrid(8), randomNodes(rng, 300, 8), 10)
	var leaves []*TreeNode
	l.Root.visitLeaves(func(n *TreeNode) { leaves = append(leaves, n) })
	sparse, dense := densePatch(100, 100, 12).Compact, densePatch(90, 90, 40).Compact
	var scratch LeafScratch
	sweep := func(q *cellset.Compact) func() {
		return func() {
			for _, n := range leaves {
				n.OverlapCounts(q, 0, &scratch)
			}
		}
	}
	check := func(pass string, q *cellset.Compact) {
		t.Helper()
		sweep(q)() // warm-up: grows the scratch to the widest leaf
		if allocs := testing.AllocsPerRun(50, sweep(q)); allocs != 0 {
			t.Errorf("%s allocated %.1f times per sweep", pass, allocs)
		}
	}
	check("rank pass", sparse)
	check("chunk merge", dense)
}

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

// allCounts is OverlapCounts with nothing to prune against, through a
// probe of q built for the call: a nil answer (no query cell in the leaf
// at all) reads as all-zero counts.
func allCounts(leaf *TreeNode, q *cellset.Compact, s *LeafScratch) []int {
	p := cellset.NewProbe(q)
	defer p.Release()
	if counts := leaf.OverlapCounts(p, 0, s); counts != nil {
		return counts
	}
	return make([]int, len(leaf.Children))
}

// densePatch returns the side×side block of cells at (x0, y0): a query
// whose chunks hold hundreds to thousands of cells, or a dataset past 4,096
// cells in one chunk, whose container is a bitmap.
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
// the executor's inner loop — must not allocate, for a sparse query and a
// dense one alike.
func TestAppendOverlapCountsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := Build(testGrid(8), randomNodes(rng, 300, 8), 10)
	var leaves []*TreeNode
	l.Root.visitLeaves(func(n *TreeNode) { leaves = append(leaves, n) })
	sparse, dense := densePatch(100, 100, 12).Compact, densePatch(90, 90, 40).Compact
	var scratch LeafScratch
	sweep := func(q *cellset.Probe) func() {
		return func() {
			for _, n := range leaves {
				n.OverlapCounts(q, 0, &scratch)
			}
		}
	}
	check := func(kind string, q *cellset.Compact) {
		t.Helper()
		p := cellset.NewProbe(q)
		defer p.Release()
		sweep(p)() // warm-up: grows the scratch to the widest leaf
		if allocs := testing.AllocsPerRun(50, sweep(p)); allocs != 0 {
			t.Errorf("%s query allocated %.1f times per sweep", kind, allocs)
		}
	}
	check("sparse", sparse)
	check("dense", dense)
}

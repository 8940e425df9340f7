package exec

import (
	"math/rand"
	"testing"

	"dits/internal/cellset"
	"dits/internal/index/dits"
	"dits/internal/search/overlap"
)

// TestVerifyLoopZeroAlloc: after warm-up (scratch grown, top-k filled, a
// probe with its bitmaps on the free list) building and releasing the
// query's probe and the per-leaf verification loop between — bound check,
// counting kernel, top-k offers — must run allocation-free. This is the
// loop a query spins in for its whole verification phase.
func TestVerifyLoopZeroAlloc(t *testing.T) {
	idx, nodes := buildWorld(t, 200, 8, 6, 11)
	q := queryFrom(rand.New(rand.NewSource(9)), nodes)
	cands := idx.Root.FilterLeaves(q)
	if len(cands) == 0 {
		t.Fatal("query reached no leaves")
	}
	lq := q.CompactCells()
	topk := overlap.NewTopK(5)
	var scratch dits.LeafScratch
	sweep := func() {
		p := cellset.NewProbe(lq)
		for _, c := range cands {
			verifyLeaf(topk, c.Leaf, p, &scratch)
		}
		p.Release()
	}
	sweep() // warm-up
	if allocs := testing.AllocsPerRun(50, sweep); allocs != 0 {
		t.Errorf("warm verification sweep allocated %.1f times", allocs)
	}
}

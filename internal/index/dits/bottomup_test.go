package dits

import (
	"math/rand"
	"testing"

	"dits/internal/cellset"
)

func TestBuildBottomUpInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{0, 1, 2, 7, 50, 150} {
		for _, f := range []int{1, 4, 10} {
			l := BuildBottomUp(testGrid(7), randomNodes(rng, n, 7), f)
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("n=%d f=%d: %v", n, f, err)
			}
			if l.Len() != n {
				t.Fatalf("n=%d f=%d: Len = %d", n, f, l.Len())
			}
		}
	}
}

func TestBuildBottomUpAnswersLikeTopDown(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	nodes := randomNodes(rng, 120, 7)
	top := Build(testGrid(7), nodes, 6)
	bottom := BuildBottomUp(testGrid(7), nodes, 6)
	// Same datasets, same per-leaf bounds semantics: compare overlap
	// bounds aggregated over all leaves for random queries — exactness of
	// searches over either tree follows from the shared leaf machinery,
	// so here it suffices that both trees index identical content.
	for trial := 0; trial < 50; trial++ {
		q := randomNodes(rng, 1, 7)[0]
		var topTotal, bottomTotal int
		p := cellset.NewProbe(q.CompactCells())
		var scratch LeafScratch
		top.Root.visitLeaves(func(leaf *TreeNode) {
			topTotal += sumCounts(leaf.OverlapCounts(p, 0, &scratch))
		})
		bottom.Root.visitLeaves(func(leaf *TreeNode) {
			bottomTotal += sumCounts(leaf.OverlapCounts(p, 0, &scratch))
		})
		p.Release()
		if topTotal != bottomTotal {
			t.Fatalf("trial %d: total overlaps differ: %d vs %d", trial, topTotal, bottomTotal)
		}
	}
	// Updates work on the bottom-up tree too.
	nd := randomNodes(rng, 1, 7)[0]
	nd.ID = 9999
	if err := bottom.Insert(nd); err != nil {
		t.Fatal(err)
	}
	if err := bottom.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := bottom.Delete(9999); err != nil {
		t.Fatal(err)
	}
	if err := bottom.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildBottomUpRejectsHugeInputs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BuildBottomUp should panic beyond its size cap")
		}
	}()
	rng := rand.New(rand.NewSource(63))
	BuildBottomUp(testGrid(7), randomNodes(rng, BuildBottomUpMaxDatasets+1, 7), 10)
}

func sumCounts(counts []int) int {
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

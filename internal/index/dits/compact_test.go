package dits

import (
	"math/rand"
	"slices"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

// TestLeafCompactParity differentially checks OverlapCounts and the
// Lemma 2/3 bounds against the plain-set oracle on random
// builds, and again after update sequences: valid bounds, the documented
// pruning rule and identical exact counts for every leaf and query.
func TestLeafCompactParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var scratch LeafScratch
	checkAllLeaves := func(l *Local, label string) {
		t.Helper()
		for trial := 0; trial < 20; trial++ {
			q := randomNodes(rng, 1, 8)[0]
			lq := q.CompactCells()
			p := cellset.NewProbe(lq)
			l.Root.visitLeaves(func(leaf *TreeNode) {
				want := bruteCounts(leaf, q.Cells)
				if got := allCounts(leaf, lq, &scratch); !slices.Equal(got, want) {
					t.Fatalf("%s: OverlapCounts = %v, brute force = %v", label, got, want)
				}
				lb, ub := leafBounds(leaf, lq)
				for i, n := range want {
					if n < lb || n > ub {
						t.Fatalf("%s: count[%d] = %d outside [lb=%d, ub=%d]", label, i, n, lb, ub)
					}
				}
				// Pruning is strict: a leaf tying the threshold survives.
				if ub > 0 && leaf.OverlapCounts(p, ub, &scratch) == nil {
					t.Fatalf("%s: leaf with ub %d pruned at threshold %d", label, ub, ub)
				}
				if leaf.OverlapCounts(p, ub+1, &scratch) != nil {
					t.Fatalf("%s: leaf with ub %d survived threshold %d", label, ub, ub+1)
				}
			})
			p.Release()
		}
	}

	l := Build(testGrid(8), randomNodes(rng, 200, 8), 10)
	checkAllLeaves(l, "after build")

	// Mutate: inserts (including leaf splits), deletes, updates.
	extra := randomNodes(rng, 60, 8)
	for i, nd := range extra {
		nd.ID = 1000 + i
		if err := l.Insert(nd); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 40; id++ {
		if err := l.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range randomNodes(rng, 20, 8) {
		nd.ID = 1000 + i
		if err := l.Update(nd); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAllLeaves(l, "after updates")
}

// TestLeafCompactParityHandBuiltQuery covers the CompactCells fallback for
// query nodes built without going through NewNodeFromCells.
func TestLeafCompactParityHandBuiltQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	l := Build(testGrid(8), randomNodes(rng, 50, 8), 5)
	cells := cellset.New(geo.ZEncode(3, 4), geo.ZEncode(5, 6), geo.ZEncode(200, 200))
	q := &dataset.Node{ID: -1, Cells: cells} // no Compact field
	lq := q.CompactCells()
	if lq == nil || lq.Len() != cells.Len() {
		t.Fatalf("CompactCells fallback = %v", lq)
	}
	var scratch LeafScratch
	l.Root.visitLeaves(func(leaf *TreeNode) {
		want := bruteCounts(leaf, cells)
		if got := allCounts(leaf, lq, &scratch); !slices.Equal(got, want) {
			t.Fatalf("counts diverge: OverlapCounts %v, brute force %v", got, want)
		}
	})
}

// leafBounds returns the Lemma 3 lower and Lemma 2 upper bound on the
// overlap of q with any dataset of the leaf: its intersection with the
// cells every child holds, folded here, and with the leaf's union summary.
func leafBounds(leaf *TreeNode, q *cellset.Compact) (lb, ub int) {
	all := leaf.Children[0].CompactCells()
	for _, c := range leaf.Children[1:] {
		all = all.Intersect(c.CompactCells())
	}
	return q.IntersectCount(all), q.IntersectCount(leaf.LeafSummaries())
}

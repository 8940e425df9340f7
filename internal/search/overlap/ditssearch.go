package overlap

import (
	"cmp"
	"slices"

	"dits/internal/dataset"
	"dits/internal/index/dits"
)

// DITSSearcher implements OverlapSearch (Algorithm 2) on a DITS-L index:
// a branch-and-bound pass prunes subtrees whose MBR misses the query and
// collects the surviving leaves; those are verified best-upper-bound-first
// against the running k-th best overlap, with the Lemma 2 bound that
// dits.TreeNode.OverlapCounts reads off its intersection giving each leaf a
// second chance to be skipped before the exact per-dataset counting. Whole
// leaves prune in batch, and verification stops as soon as no remaining
// leaf can improve the result.
type DITSSearcher struct {
	Index *dits.Local

	// DisableBounds switches off pruning on the Lemma 2 leaf bound, so
	// every leaf the free MaxCells bound lets through is counted. It exists
	// for the ablation benchmark; results are identical either way, only
	// the work done differs.
	DisableBounds bool
}

// Name implements Searcher.
func (s *DITSSearcher) Name() string {
	if s.DisableBounds {
		return "OverlapSearch(no-bounds)"
	}
	return "OverlapSearch"
}

// candidateLeaf is a leaf that survived MBR pruning, with its cheap upper
// bound min(|S_Q|, MaxCells).
type candidateLeaf struct {
	leaf *dits.TreeNode
	ub   int
}

// TopK implements Searcher.
func (s *DITSSearcher) TopK(q *dataset.Node, k int) []Result {
	if q == nil || k <= 0 || s.Index.Root == nil {
		return nil
	}
	lq := dits.NewLeafQuery(q)
	// Filter step: collect the leaves whose MBR intersects the query MBR
	// (internal-node pruning of Algorithm 2, lines 24-26). Each carries
	// the free upper bound min(|S_Q|, MaxCells).
	var cands []candidateLeaf
	var walk func(n *dits.TreeNode)
	walk = func(n *dits.TreeNode) {
		if n == nil || !n.Rect.Intersects(q.Rect) {
			return
		}
		if !n.IsLeaf() {
			walk(n.Left)
			walk(n.Right)
			return
		}
		ub := n.MaxCells
		if qn := q.Coverage(); qn < ub {
			ub = qn
		}
		if ub > 0 {
			cands = append(cands, candidateLeaf{leaf: n, ub: ub})
		}
	}
	walk(s.Index.Root)

	// Verification in decreasing upper-bound order: once k results are
	// held, a leaf whose bound is below the running k-th best — and, as
	// the leaves are sorted, every later leaf — can be pruned in batch.
	// For surviving leaves dits.OverlapCounts gives Lemma 2 a second,
	// tighter chance to skip before the exact per-dataset counting; with
	// DisableBounds its threshold stays 0, which never prunes.
	slices.SortFunc(cands, func(a, b candidateLeaf) int { return cmp.Compare(b.ub, a.ub) })
	res := newTopK(k)
	var scratch dits.LeafScratch
	for _, c := range cands {
		if res.full() && c.ub < res.kthOverlap() {
			break // every later leaf has an even smaller upper bound
		}
		th := 0
		if !s.DisableBounds && res.full() {
			th = res.kthOverlap()
		}
		for i, n := range c.leaf.OverlapCounts(lq, th, &scratch) {
			if n > 0 {
				d := c.leaf.Children[i]
				res.offer(Result{ID: d.ID, Name: d.Name, Overlap: n})
			}
		}
	}
	return res.sorted()
}

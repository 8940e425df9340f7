package overlap

import (
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/index/dits"
)

// DITSSearcher implements OverlapSearch (Algorithm 2) on a DITS-L index:
// a branch-and-bound pass prunes subtrees whose MBR misses the query and
// collects the surviving leaves; those are verified best-upper-bound-first
// against the running k-th best overlap, with the Lemma 2 bound that
// dits.TreeNode.OverlapCounts reads off the query's probe giving each leaf a
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

// TopK implements Searcher.
func (s *DITSSearcher) TopK(q *dataset.Node, k int) []Result {
	if q == nil || k <= 0 || s.Index.Root == nil {
		return nil
	}
	lq := cellset.NewProbe(q.CompactCells())
	defer lq.Release()
	// Filter step, then verification in decreasing upper-bound order: once
	// k results are held, a leaf whose bound is below the running k-th
	// best — and, as the leaves are sorted, every later leaf — can be
	// pruned in batch. For surviving leaves dits.OverlapCounts gives
	// Lemma 2 a second, tighter chance to skip before the exact
	// per-dataset counting; with DisableBounds its threshold stays 0,
	// which never prunes.
	res := NewTopK(k)
	scratch := dits.NewLeafScratch()
	defer scratch.Release()
	for _, c := range s.Index.Root.FilterLeaves(q) {
		if c.UB < res.Threshold() {
			break // every later leaf has an even smaller upper bound
		}
		th := 0
		if !s.DisableBounds {
			th = res.Threshold()
		}
		for i, n := range c.Leaf.OverlapCounts(lq, th, scratch) {
			if n > 0 {
				d := c.Leaf.Children[i]
				res.Offer(Result{ID: d.ID, Name: d.Name, Overlap: n})
			}
		}
	}
	return res.Sorted()
}

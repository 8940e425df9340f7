package exec

import (
	"context"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/index/dits"
	"dits/internal/search/overlap"
)

// verifyLeaf verifies one leaf for one query: dits.OverlapCounts prunes the
// leaf on the Lemma 2 bound against the top-k's threshold or returns the
// exact per-dataset counts, whose positive entries are offered into the
// top-k. q is the query's probe, built once per execution, and s the
// caller's scratch, reused across every leaf it verifies — after warm-up
// the loop allocates nothing.
func verifyLeaf(t *overlap.TopK, leaf *dits.TreeNode, q *cellset.Probe, s *dits.LeafScratch) {
	for i, n := range leaf.OverlapCounts(q, t.Threshold(), s) {
		if n > 0 {
			d := leaf.Children[i]
			t.Offer(overlap.Result{ID: d.ID, Name: d.Name, Overlap: n})
		}
	}
}

// OverlapTopK answers one OJSP query (Algorithm 2) over the index:
// candidate leaves are verified in decreasing upper-bound order until no
// remaining leaf can beat the k-th best. Results are identical to
// (*overlap.DITSSearcher).TopK. On context cancellation it returns
// ctx.Err() with no results.
func (e *Executor) OverlapTopK(ctx context.Context, idx *dits.Local, q *dataset.Node, k int) ([]overlap.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if q == nil || k <= 0 || idx == nil || idx.Root == nil {
		return nil, nil
	}
	lq := cellset.NewProbe(q.CompactCells())
	defer lq.Release()
	t := overlap.NewTopK(k)
	scratch := dits.NewLeafScratch()
	defer scratch.Release()
	for i, c := range idx.Root.FilterLeaves(q) {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if c.UB < t.Threshold() {
			break // every later leaf is bounded even lower
		}
		verifyLeaf(t, c.Leaf, lq, scratch)
	}
	return t.Sorted(), nil
}

package exec

import (
	"cmp"
	"context"
	"slices"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/index/dits"
	"dits/internal/search/overlap"
)

// BatchQuery is one OJSP query of a batch: its query node and its own k.
type BatchQuery struct {
	Q *dataset.Node
	K int
}

// batchLeaf is one DITS-L leaf together with the batch queries active at
// it: the queries whose MBR reached the leaf during the single shared
// walk, each with its free upper bound at this leaf.
type batchLeaf struct {
	leaf  *dits.TreeNode
	qis   []int32 // indices into the batch
	ubs   []int32 // free upper bound per active query
	maxUB int     // max over ubs, for leaf ordering
}

// OverlapTopKBatch answers a batch of OJSP queries in one pass over the
// index. The tree is walked ONCE for the whole batch — each internal
// node's MBR test runs against all queries still active in that subtree —
// and verification is leaf-major: a leaf's compact summaries and child
// cell sets are visited once per batch, answering every query active at
// the leaf back-to-back while the containers are cache-hot, instead of
// once per query. Queries whose cells land in the same tree regions
// therefore share all node work, which is where the batched speedup
// comes from.
//
// Results are identical, query by query, to running each query alone
// (enforced by the differential tests and the exec bench): every query
// keeps its own top-k heap and prunes only against its own threshold, a
// safe lower bound of its final k-th best. The returned slice aligns with
// the input; a nil or empty query yields a nil entry. On cancellation it
// returns ctx.Err() with no results.
func (e *Executor) OverlapTopKBatch(ctx context.Context, idx *dits.Local, batch []BatchQuery) ([][]overlap.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]overlap.Result, len(batch))
	if idx == nil || idx.Root == nil || len(batch) == 0 {
		return out, nil
	}

	// Per-query execution state, only for usable queries.
	type qstate struct {
		q   *cellset.Probe
		t   *overlap.TopK
		cov int
	}
	states := make([]*qstate, len(batch))
	active := make([]int32, 0, len(batch))
	for i, bq := range batch {
		if bq.Q == nil || bq.K <= 0 || bq.Q.Coverage() == 0 {
			continue
		}
		states[i] = &qstate{q: cellset.NewProbe(bq.Q.CompactCells()), t: overlap.NewTopK(bq.K), cov: bq.Q.Coverage()}
		active = append(active, int32(i))
	}
	if len(active) == 0 {
		return out, nil
	}
	defer func() {
		for _, qi := range active {
			states[qi].q.Release()
		}
	}()

	// One shared walk: at each internal node the active set is filtered by
	// MBR intersection, so a subtree no query reaches is descended zero
	// times, and a subtree B queries reach is descended once, not B times.
	var leaves []batchLeaf
	var walk func(n *dits.TreeNode, act []int32)
	walk = func(n *dits.TreeNode, act []int32) {
		if n == nil {
			return
		}
		surv := make([]int32, 0, len(act))
		for _, qi := range act {
			if n.Rect.Intersects(batch[qi].Q.Rect) {
				surv = append(surv, qi)
			}
		}
		if len(surv) == 0 {
			return
		}
		if !n.IsLeaf() {
			walk(n.Left, surv)
			walk(n.Right, surv)
			return
		}
		bl := batchLeaf{leaf: n, qis: make([]int32, 0, len(surv)), ubs: make([]int32, 0, len(surv))}
		for _, qi := range surv {
			ub := n.MaxCells
			if c := states[qi].cov; c < ub {
				ub = c
			}
			if ub > 0 {
				bl.qis = append(bl.qis, qi)
				bl.ubs = append(bl.ubs, int32(ub))
				if ub > bl.maxUB {
					bl.maxUB = ub
				}
			}
		}
		if len(bl.qis) > 0 {
			leaves = append(leaves, bl)
		}
	}
	walk(idx.Root, active)

	// Leaf-major verification in decreasing max-bound order, so every
	// query's threshold rises early and later leaves are skipped per query
	// by the same Lemma 2 logic as the single-query path.
	slices.SortFunc(leaves, func(a, b batchLeaf) int { return cmp.Compare(b.maxUB, a.maxUB) })
	scratch := dits.NewLeafScratch()
	defer scratch.Release()
	for li, bl := range leaves {
		if li%8 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for j, qi := range bl.qis {
			st := states[qi]
			if int(bl.ubs[j]) < st.t.Threshold() {
				continue // this query can no longer gain from this leaf
			}
			verifyLeaf(st.t, bl.leaf, st.q, scratch)
		}
	}
	for i, st := range states {
		if st != nil {
			out[i] = st.t.Sorted()
		}
	}
	return out, nil
}

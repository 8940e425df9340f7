package exec

import (
	"context"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
)

// FindConnectSet is coverage.FindConnectSetWithIndex: every dataset within
// delta of q, in the walk's DFS order. The walk runs to completion; ctx is
// not consulted.
func (e *Executor) FindConnectSet(ctx context.Context, root *dits.TreeNode, q *dataset.Node, delta float64, qIdx *cellset.DistIndex) []*dataset.Node {
	return coverage.FindConnectSetWithIndex(root, q, delta, qIdx, nil)
}

// ExtendConnectSet folds into cs every dataset within delta of q that it
// does not hold yet: the walk of FindConnectSet, skipping cs's datasets
// before their bounds and exact checks. cs ends up exactly as after
// cs.Add(e.FindConnectSet(...)), first-seen order included.
func (e *Executor) ExtendConnectSet(ctx context.Context, root *dits.TreeNode, q *dataset.Node, delta float64, qIdx *cellset.DistIndex, cs *coverage.ConnectSet) {
	cs.Extend(root, q, delta, qIdx)
}

// PickBest selects the candidate with the maximum marginal gain over
// covered, excluding IDs for which excluded returns true, with the
// smallest-ID tie-break every picker uses: the sequential scan, pickBestSeq.
// It returns (nil, 0) when no candidate adds a cell. ctx is not consulted.
//
// PickBest is the one-shot pick, for a caller that keeps no state between
// picks (the source's stateless coverage round). A loop that picks round
// after round from a growing merged set uses a LazyPicker, which returns
// the same pick from bounds it keeps.
func (e *Executor) PickBest(ctx context.Context, cands []*dataset.Node, excluded func(id int) bool, covered *cellset.Compact) (*dataset.Node, int) {
	return pickBestSeq(cands, excluded, covered)
}

// pickBestSeq is the sequential scan of PickBest, the same scan as
// search/coverage's Algorithm 3 picker. LazyPicker returns its pick.
func pickBestSeq(cands []*dataset.Node, excluded func(id int) bool, covered *cellset.Compact) (*dataset.Node, int) {
	var best *dataset.Node
	tau := 0
	for _, nd := range cands {
		if nd == nil || excluded(nd.ID) {
			continue
		}
		if nd.Coverage() < tau {
			continue
		}
		g := covered.MarginalGain(nd.CompactCells())
		if g > tau || (g == tau && best != nil && nd.ID < best.ID) {
			best, tau = nd, g
		}
	}
	return best, tau
}

// CoverageSearch runs the greedy of CoverageSearch (Algorithm 3). Where the
// paper re-walks the tree from the whole merged node every round and
// rescans every gain, this loop keeps its state in a LazyPicker: it walks
// from the last pick alone, skipping what it holds (ExtendConnectSet), and
// re-evaluates only the gains that can still win, from the cells the picks
// since added. Candidates, gains and tie-breaks are the same, so results
// are identical to (*coverage.DITSSearcher).Search. On cancellation the
// rounds picked so far are returned with ctx.Err().
func (e *Executor) CoverageSearch(ctx context.Context, idx *dits.Local, q *dataset.Node, delta float64, k int) (coverage.Result, error) {
	if q == nil || k <= 0 || idx == nil || idx.Root == nil {
		return coverageResultFor(q, nil, nil), ctx.Err()
	}
	var p LazyPicker
	p.Reset(q.CompactCells())
	picked := map[int]bool{}
	var chosen []*dataset.Node

	added := q // the node whose cells joined the merged set last
	for len(chosen) < k {
		if err := ctx.Err(); err != nil {
			return coverageResultFor(q, chosen, p.Merged()), err
		}
		e.ExtendConnectSet(ctx, idx.Root, added, delta, cellset.NewDistIndex(added.FlatCells(), delta), &p.Connected)
		best, _ := p.Pick(func(id int) bool { return picked[id] })
		if best == nil {
			break
		}
		picked[best.ID] = true
		chosen = append(chosen, best)
		p.Absorb(best.CompactCells())
		added = best
	}
	return coverageResultFor(q, chosen, p.Merged()), nil
}

// coverageResultFor assembles the coverage.Result for picked datasets.
func coverageResultFor(q *dataset.Node, picked []*dataset.Node, covered *cellset.Compact) coverage.Result {
	r := coverage.Result{Picked: picked}
	if q != nil {
		r.QueryCoverage = q.Coverage()
		r.Coverage = r.QueryCoverage
	}
	if covered != nil {
		r.Coverage = covered.Len()
	}
	return r
}

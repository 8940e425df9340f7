package exec

import (
	"context"
	"sync/atomic"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
)

// connectTaskFactor sizes the subtree task list of a parallel
// FindConnectSet: the frontier is expanded until it holds about this many
// tasks per worker, so the pool stays busy even when subtree costs skew.
const connectTaskFactor = 4

// FindConnectSet is coverage.FindConnectSetWithIndex executed across the
// worker pool: the tree is split into a DFS-ordered frontier of subtree
// tasks and each task runs the sequential walk independently. The result
// set and its order are identical to the sequential walk — every accept /
// prune / verify decision is made from a subtree's own (valid) bounds, and
// the exact leaf-level checks are shared — so callers can swap the two
// freely. qIdx is read concurrently and must not be mutated during the
// call.
func (e *Executor) FindConnectSet(ctx context.Context, root *dits.TreeNode, q *dataset.Node, delta float64, qIdx *cellset.DistIndex) []*dataset.Node {
	return e.findConnectSet(ctx, root, q, delta, qIdx, nil)
}

// ExtendConnectSet folds into cs every dataset within delta of q that it
// does not hold yet: the walk of FindConnectSet, skipping cs's datasets
// before their bounds and exact checks. cs ends up exactly as after
// cs.Add(e.FindConnectSet(...)), first-seen order included.
func (e *Executor) ExtendConnectSet(ctx context.Context, root *dits.TreeNode, q *dataset.Node, delta float64, qIdx *cellset.DistIndex, cs *coverage.ConnectSet) {
	cs.Add(e.findConnectSet(ctx, root, q, delta, qIdx, cs))
}

// findConnectSet is the pooled walk; known (nil for none) is only read.
func (e *Executor) findConnectSet(ctx context.Context, root *dits.TreeNode, q *dataset.Node, delta float64, qIdx *cellset.DistIndex, known *coverage.ConnectSet) []*dataset.Node {
	w := e.workers()
	if w == 1 || root == nil {
		return coverage.FindConnectSetWithIndex(root, q, delta, qIdx, known)
	}
	// DFS-ordered frontier: concatenating per-task results in task order
	// reproduces the sequential DFS output order exactly.
	target := connectTaskFactor * w
	tasks := []*dits.TreeNode{root}
	for len(tasks) < target {
		split := -1
		for i, n := range tasks {
			if !n.IsLeaf() {
				split = i
				break
			}
		}
		if split < 0 {
			break
		}
		n := tasks[split]
		tasks = append(tasks[:split:split], append([]*dits.TreeNode{n.Left, n.Right}, tasks[split+1:]...)...)
	}
	outs := make([][]*dataset.Node, len(tasks))
	var cursor atomic.Int64
	runWorkers(w, func(wk int) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(tasks) || ctx.Err() != nil {
				return
			}
			outs[i] = coverage.FindConnectSetWithIndex(tasks[i], q, delta, qIdx, known)
		}
	})
	var out []*dataset.Node
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// pickBestChunk is the candidates-per-task grain of PickBest: big enough
// to amortize cursor traffic, small enough to balance skewed gains.
const pickBestChunk = 16

// PickBest selects the candidate with the maximum marginal gain over
// covered, excluding IDs for which excluded returns true, with the
// smallest-ID tie-break every sequential picker uses. Gains are computed
// across the worker pool; the pick is identical to the sequential scan
// because the reduction is by the total order (gain desc, ID asc) and the
// size filter (|S_D| < best gain so far ⇒ cannot win) only skips exact
// computations, never changes the winner. The shared best-gain bound is a
// monotone atomic, so a worker filtering against it can only under-filter
// relative to the sequential pass, never over-filter.
//
// PickBest is the one-shot pick, for a caller that keeps no state between
// picks (the source's stateless coverage round). A loop that picks round
// after round from a growing merged set uses a LazyPicker, which returns
// the same pick from bounds it keeps.
func (e *Executor) PickBest(ctx context.Context, cands []*dataset.Node, excluded func(id int) bool, covered *cellset.Compact) (*dataset.Node, int) {
	w := e.workers()
	if w == 1 || len(cands) <= pickBestChunk {
		return pickBestSeq(cands, excluded, covered)
	}
	type pick struct {
		best *dataset.Node
		gain int
	}
	nchunks := (len(cands) + pickBestChunk - 1) / pickBestChunk
	picks := make([]pick, nchunks)
	var cursor atomic.Int64
	var bound atomic.Int64 // best gain seen anywhere, for the size filter
	runWorkers(w, func(wk int) {
		for {
			ci := int(cursor.Add(1)) - 1
			if ci >= nchunks || ctx.Err() != nil {
				return
			}
			lo := ci * pickBestChunk
			hi := min(lo+pickBestChunk, len(cands))
			best, gain := (*dataset.Node)(nil), -1
			for _, nd := range cands[lo:hi] {
				if nd == nil || excluded(nd.ID) {
					continue
				}
				// The size filter stays strict (<) against the best gain
				// seen anywhere, so a candidate tying the global best is
				// still computed and the ID tie-break stays exact.
				filter := gain
				if t := int(bound.Load()); t > filter {
					filter = t
				}
				if nd.Coverage() < filter {
					continue
				}
				g := covered.MarginalGain(nd.CompactCells())
				if g > gain || (g == gain && best != nil && nd.ID < best.ID) {
					best, gain = nd, g
					for {
						cur := bound.Load()
						if int64(g) <= cur || bound.CompareAndSwap(cur, int64(g)) {
							break
						}
					}
				}
			}
			picks[ci] = pick{best: best, gain: gain}
		}
	})
	var best *dataset.Node
	gain := -1
	for _, p := range picks {
		if p.best == nil {
			continue
		}
		if p.gain > gain || (p.gain == gain && (best == nil || p.best.ID < best.ID)) {
			best, gain = p.best, p.gain
		}
	}
	return best, gain
}

// pickBestSeq is the sequential scan of PickBest, the same scan as
// search/coverage's Algorithm 3 picker. LazyPicker returns its pick.
func pickBestSeq(cands []*dataset.Node, excluded func(id int) bool, covered *cellset.Compact) (*dataset.Node, int) {
	var best *dataset.Node
	tau := -1
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

// CoverageSearch runs the greedy of CoverageSearch (Algorithm 3) with the
// FindConnectSet walk executed on the worker pool. Where the paper re-walks
// the tree from the whole merged node every round and rescans every gain,
// this loop keeps its state in a LazyPicker: it walks from the last pick
// alone, skipping what it holds (ExtendConnectSet), and re-evaluates only
// the gains that can still win, from the cells the picks since added.
// Candidates, gains and tie-breaks are the same, so results are identical
// to (*coverage.DITSSearcher).Search. The greedy round structure itself is
// inherently sequential (each round's state depends on the previous pick),
// so rounds and the pick are not parallelized. On cancellation the rounds
// picked so far are returned with ctx.Err().
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

// CoverageSearchBatch executes a batch of CJSP queries concurrently on the
// pool, one sequential greedy per query (a coverage query's rounds are
// data-dependent, so cross-query concurrency is the parallelism batching
// can exploit). Entry i of the result aligns with query i; a nil query
// yields the empty result. On cancellation remaining queries are left
// empty and ctx.Err() is returned.
func (e *Executor) CoverageSearchBatch(ctx context.Context, idx *dits.Local, qs []*dataset.Node, delta float64, k int) ([]coverage.Result, error) {
	out := make([]coverage.Result, len(qs))
	inner := &Executor{Workers: 1} // one worker per query; no nested pools
	var cursor atomic.Int64
	var cancelled atomic.Bool
	runWorkers(e.workers(), func(wk int) {
		for !cancelled.Load() {
			i := int(cursor.Add(1)) - 1
			if i >= len(qs) {
				return
			}
			res, err := inner.CoverageSearch(ctx, idx, qs[i], delta, k)
			if err != nil {
				cancelled.Store(true)
				return
			}
			out[i] = res
		}
	})
	if cancelled.Load() {
		return out, ctx.Err()
	}
	return out, nil
}

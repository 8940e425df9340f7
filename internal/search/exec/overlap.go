package exec

import (
	"context"
	"sync/atomic"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/index/dits"
	"dits/internal/search/overlap"
)

// minParallelLeaves is the candidate count below which OverlapTopK stays
// on the in-line sequential path: with only a handful of leaves to verify,
// goroutine startup costs more than it saves.
const minParallelLeaves = 4

// verifyLeaf verifies one leaf for one query — the unit of work a worker
// executes: dits.OverlapCounts prunes the leaf on the Lemma 2 bound against
// the shared threshold or returns the exact per-dataset counts, whose
// positive entries are offered into the shared top-k. s is the worker's own
// scratch, reused across every leaf it verifies — after warm-up the loop
// allocates nothing.
func verifyLeaf(t *stripedTopK, w int, leaf *dits.TreeNode, q *cellset.Compact, s *dits.LeafScratch) {
	for i, n := range leaf.OverlapCounts(q, t.threshold(), s) {
		if n > 0 {
			d := leaf.Children[i]
			t.offer(w, overlap.Result{ID: d.ID, Name: d.Name, Overlap: n})
		}
	}
}

// OverlapTopK answers one OJSP query (Algorithm 2) over the index,
// verifying candidate leaves on the executor's worker pool. Results are
// identical to (*overlap.DITSSearcher).TopK; only the wall-clock changes.
// On context cancellation it returns ctx.Err() with no results and no
// leaked goroutines.
func (e *Executor) OverlapTopK(ctx context.Context, idx *dits.Local, q *dataset.Node, k int) ([]overlap.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if q == nil || k <= 0 || idx == nil || idx.Root == nil {
		return nil, nil
	}
	return e.verifyCands(ctx, idx.Root.FilterLeaves(q), q.CompactCells(), k)
}

// verifyCands drives the ordered verification of one query's candidate
// leaves across the pool.
func (e *Executor) verifyCands(ctx context.Context, cands []dits.LeafCand, q *cellset.Compact, k int) ([]overlap.Result, error) {
	w := e.workers()
	if w == 1 || len(cands) < minParallelLeaves {
		return verifySequential(ctx, cands, q, k)
	}
	nstripes := w
	if nstripes > 8 {
		nstripes = 8
	}
	t := newStripedTopK(k, nstripes)
	var (
		cursor    atomic.Int64
		exhausted atomic.Bool // prune threshold beat the remaining bounds
		cancelled atomic.Bool
	)
	runWorkers(w, func(wk int) {
		var scratch dits.LeafScratch // per worker, reused leaf to leaf
		for !exhausted.Load() && !cancelled.Load() {
			i := int(cursor.Add(1)) - 1
			if i >= len(cands) {
				return
			}
			if i%16 == 0 && ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			c := cands[i]
			if c.UB < t.threshold() {
				// cands is sorted by UB: every later leaf is bounded even
				// lower, so the whole pool can stop claiming tasks.
				exhausted.Store(true)
				return
			}
			verifyLeaf(t, wk, c.Leaf, q, &scratch)
		}
	})
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	return t.ranked(), nil
}

// verifySequential is the in-line path, structured exactly like the
// sequential searcher's verification loop (shared prune logic, one
// stripe).
func verifySequential(ctx context.Context, cands []dits.LeafCand, q *cellset.Compact, k int) ([]overlap.Result, error) {
	t := newStripedTopK(k, 1)
	var scratch dits.LeafScratch
	for i, c := range cands {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if c.UB < t.threshold() {
			break
		}
		verifyLeaf(t, 0, c.Leaf, q, &scratch)
	}
	return t.ranked(), nil
}

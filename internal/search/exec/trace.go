package exec

import (
	"time"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/index/dits"
	"dits/internal/search/overlap"
)

// OverlapTrace is the cost profile of one OJSP execution, decomposed into
// the serial prefix (filter walk + candidate sort) and one entry per
// verified leaf, in the upper-bound order the leaves were verified.
type OverlapTrace struct {
	Results  []overlap.Result
	SerialNs float64   // filter walk + sort + result merge
	TaskNs   []float64 // per-leaf verification costs, in verification order
}

// TraceOverlap runs OverlapTopK's verification loop with per-leaf timing.
// The results are identical to OverlapTopK's; the benchmark's kernel view
// reads the serial share and the leaf-task count from it.
func TraceOverlap(idx *dits.Local, q *dataset.Node, k int) OverlapTrace {
	var tr OverlapTrace
	if q == nil || k <= 0 || idx == nil || idx.Root == nil {
		return tr
	}
	start := time.Now()
	cands := idx.Root.FilterLeaves(q)
	tr.SerialNs = float64(time.Since(start).Nanoseconds())
	lq := cellset.NewProbe(q.CompactCells())
	defer lq.Release()
	t := overlap.NewTopK(k)
	scratch := dits.NewLeafScratch()
	defer scratch.Release()
	for _, c := range cands {
		if c.UB < t.Threshold() {
			break
		}
		ts := time.Now()
		verifyLeaf(t, c.Leaf, lq, scratch)
		tr.TaskNs = append(tr.TaskNs, float64(time.Since(ts).Nanoseconds()))
	}
	start = time.Now()
	tr.Results = t.Sorted()
	tr.SerialNs += float64(time.Since(start).Nanoseconds())
	return tr
}

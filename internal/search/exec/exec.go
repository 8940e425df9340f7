// Package exec is the query-execution engine layered over the DITS-L
// searchers: it parallelizes a single OJSP/CJSP traversal across a bounded
// worker pool and executes batches of queries in one shared pass over the
// tree, while producing results byte-identical to the sequential
// `search/overlap` and `search/coverage` paths (enforced by differential
// and fuzz tests). It is the path a source serves (federation.SourceServer)
// whatever its pool size: Workers == 1 runs the same code in line, without
// goroutines. Leaf verification is dits.TreeNode.OverlapCounts, the call
// the sequential searcher makes too; each worker threads its own
// dits.LeafScratch through it, so the verification loop allocates nothing
// after warm-up.
//
// # Concurrency and ownership contracts
//
// The executor treats the index as frozen: a *dits.Local and every
// *dataset.Node reachable from it are READ-ONLY for the duration of a
// call. Callers must not run index mutations (Insert/Delete/Update)
// concurrently with an executor call — the same contract the sequential
// searchers have. Cell sets are consumed through CompactCells, which never
// mutates a node.
//
// Workers own no shared state except the striped top-k accumulator: each
// worker offers results into its own mutex-guarded stripe, and the only
// cross-worker communication is a monotonically increasing atomic prune
// threshold (a safe lower bound on the final k-th best score, so pruning
// against it can never discard a true result — see stripedTopK). Task
// distribution is an atomic cursor over a slice ordered by the Lemma 2/3
// upper bounds, so the most promising subtrees are verified first and the
// threshold rises as fast as it does sequentially.
//
// An Executor itself is stateless and safe for concurrent use by any
// number of goroutines; Workers only bounds the pool of one call.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dits/internal/search/overlap"
)

// Executor runs parallel and batched DITS-L query execution. The zero
// value is ready to use and sizes its pool to GOMAXPROCS.
type Executor struct {
	// Workers bounds the worker pool of one call. Zero or negative means
	// GOMAXPROCS; one selects the sequential in-line path (no goroutines).
	Workers int
}

// workers resolves the effective pool size.
func (e *Executor) workers() int {
	if e != nil && e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runWorkers runs fn(0..n-1) on n goroutines and returns when all have
// finished — callers never leak workers, even on context cancellation,
// because cancelled workers still return through this join.
func runWorkers(n int, fn func(w int)) {
	if n <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// resultHeap is a min-heap of overlap results whose head is the weakest
// kept result, under the shared overlap.Better ranking. The sift
// operations are hand-rolled rather than container/heap so pushing a
// result never boxes it into an interface — offer runs for every
// positive count of every verified leaf, and with the stripe storage
// pre-sized to k it allocates nothing.
type resultHeap []overlap.Result

func (h resultHeap) less(i, j int) bool { return overlap.Better(h[j], h[i]) }

func (h *resultHeap) push(r overlap.Result) {
	*h = append(*h, r)
	h.up(len(*h) - 1)
}

func (h resultHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h resultHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// topKStripe is one mutex-guarded shard of the shared top-k state.
type topKStripe struct {
	mu sync.Mutex
	h  resultHeap
	_  [32]byte // pad to a cache line so stripes don't false-share
}

// stripedTopK is the workers' shared top-k accumulator: each worker offers
// into its own stripe (no cross-worker lock contention), and stripes
// publish their k-th best score into a shared atomic threshold.
//
// Safety of pruning against thresh: a stripe holding k results has a k-th
// best score s; the k-th best of the union of all stripes is ≥ s, and the
// final k-th best only grows as more results are offered. So thresh — the
// maximum s over stripes — is always ≤ the final k-th best score, and a
// candidate with upper bound strictly below thresh can never enter the
// final top-k (a tie at the threshold is kept, so ID tie-breaks are
// unaffected). Pruned work is work the sequential pass would have pruned
// later anyway; results are identical either way.
type stripedTopK struct {
	k       int
	stripes []topKStripe
	thresh  atomic.Int64
}

// newStripedTopK creates the accumulator with n stripes.
func newStripedTopK(k, n int) *stripedTopK {
	if n < 1 {
		n = 1
	}
	return &stripedTopK{k: k, stripes: make([]topKStripe, n)}
}

// threshold returns the current safe prune bound: candidates whose upper
// bound is strictly below it cannot enter the final top-k.
func (t *stripedTopK) threshold() int { return int(t.thresh.Load()) }

// offer inserts r into worker w's stripe if it can still matter.
func (t *stripedTopK) offer(w int, r overlap.Result) {
	if r.Overlap <= 0 || r.Overlap < t.threshold() {
		return
	}
	s := &t.stripes[w%len(t.stripes)]
	s.mu.Lock()
	kth := 0
	switch {
	case len(s.h) < t.k:
		if s.h == nil {
			// Sized once so pushes never regrow, but capped: k is
			// wire-supplied, and a hostile k must not pre-allocate.
			c := min(t.k, 1024)
			s.h = make(resultHeap, 0, c)
		}
		s.h.push(r)
		if len(s.h) == t.k {
			kth = s.h[0].Overlap
		}
	case overlap.Better(r, s.h[0]):
		s.h[0] = r
		s.h.down(0)
		kth = s.h[0].Overlap
	}
	s.mu.Unlock()
	for {
		cur := t.thresh.Load()
		if int64(kth) <= cur || t.thresh.CompareAndSwap(cur, int64(kth)) {
			return
		}
	}
}

// ranked merges all stripes and returns the global top-k, best-first — the
// same output the sequential searcher produces. No further offers may be
// in flight.
func (t *stripedTopK) ranked() []overlap.Result {
	var all []overlap.Result
	for i := range t.stripes {
		all = append(all, t.stripes[i].h...)
	}
	overlap.SortResults(all)
	if len(all) > t.k {
		all = all[:t.k]
	}
	return all
}

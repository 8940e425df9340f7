// Package overlap solves the Overlap Joinable Search Problem (OJSP,
// Definition 10): find the k datasets with the largest cell-set
// intersection with the query. It provides the paper's OverlapSearch
// (Algorithm 2) over DITS-L plus the four baseline searchers of §VII-C
// (QuadTree, R-tree, STS3, Josie) and a brute-force oracle.
//
// All searchers are exact. Results are ranked by overlap descending with
// ties broken toward smaller dataset IDs, and only datasets with positive
// overlap are returned (a dataset sharing no cell with the query is not
// joinable). Better is the single definition of that ranking, shared with
// the query executor (search/exec) and the federation's result merge.
// DITSSearcher is the sequential reference and the one ditsquery and the
// paper figures run; a source serves search/exec. Both verify a leaf with
// the same call, dits.TreeNode.OverlapCounts, so they cannot count
// differently.
//
// # Concurrency and ownership
//
// Searchers are read-only over their index: any number of goroutines may
// run TopK concurrently on one DITSSearcher (or on the baselines) as long
// as no index mutation (Insert/Delete/Update) runs at the same time —
// index mutation requires exclusive access. A query node is owned by its
// caller and is only read; searchers never mutate it (CompactCells
// derives, never caches). Returned result slices are freshly allocated
// and owned by the caller.
package overlap

import (
	"container/heap"
	"slices"

	"dits/internal/dataset"
)

// Result is one joinable dataset with its exact overlap |S_Q ∩ S_D|.
type Result struct {
	ID      int
	Name    string
	Overlap int
}

// Searcher is a top-k overlap search algorithm over one data source.
type Searcher interface {
	// Name identifies the algorithm (for benchmark tables).
	Name() string
	// TopK returns up to k results, ranked by overlap descending.
	TopK(q *dataset.Node, k int) []Result
}

// Better reports whether a ranks strictly better than b: larger overlap
// first, ties toward the smaller dataset ID. It is the single ranking
// relation every OJSP searcher (and the parallel executor in search/exec)
// must agree on, so top-k results are deterministic regardless of the
// order candidates were verified in.
func Better(a, b Result) bool {
	if a.Overlap != b.Overlap {
		return a.Overlap > b.Overlap
	}
	return a.ID < b.ID
}

// SortResults orders results best-first under Better, the order every
// searcher returns.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case Better(a, b):
			return -1
		case Better(b, a):
			return 1
		default:
			return 0
		}
	})
}

// less orders results worse-first for the min-heap: smaller overlap is
// worse; on ties, the larger ID is worse (so smaller IDs are kept).
func less(a, b Result) bool { return Better(b, a) }

// resultHeap is a min-heap whose head is the weakest kept result.
type resultHeap []Result

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return less(h[i], h[j]) }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// topK maintains the running top-k during verification.
type topK struct {
	k int
	h resultHeap
}

func newTopK(k int) *topK { return &topK{k: k} }

// offer inserts r if it beats the current k-th best.
func (t *topK) offer(r Result) {
	if r.Overlap <= 0 {
		return
	}
	if t.h.Len() < t.k {
		heap.Push(&t.h, r)
		return
	}
	if less(t.h[0], r) {
		t.h[0] = r
		heap.Fix(&t.h, 0)
	}
}

// kthOverlap returns the overlap of the current k-th best result, or 0 when
// fewer than k results are held. A leaf whose upper bound is below this can
// be pruned in batch.
func (t *topK) kthOverlap() int {
	if t.h.Len() < t.k {
		return 0
	}
	return t.h[0].Overlap
}

// full reports whether k results are held.
func (t *topK) full() bool { return t.h.Len() >= t.k }

// sorted extracts the results ranked best-first.
func (t *topK) sorted() []Result {
	out := append([]Result(nil), t.h...)
	SortResults(out)
	return out
}

// rankCounts converts an id->overlap map into ranked top-k results,
// resolving names through the given function. It is shared by the
// inverted-index style baselines, which must rank every touched dataset.
func rankCounts(counts map[int]int, k int, name func(int) string) []Result {
	t := newTopK(k)
	for id, c := range counts {
		t.offer(Result{ID: id, Name: name(id), Overlap: c})
	}
	return t.sorted()
}

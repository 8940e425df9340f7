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
// relation every OJSP searcher, search/exec and TopK must agree on, so
// top-k results are deterministic regardless of the order candidates were
// verified in.
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

// maxTopKSlots caps the storage NewTopK allocates up front: k may come
// off the wire, and a hostile k must not pre-allocate.
const maxTopKSlots = 1024

// TopK keeps the k best results offered to it under Better: the running
// top-k of every OJSP searcher here and of search/exec. It is a min-heap
// whose head is the weakest kept result. The sift operations are
// hand-rolled rather than container/heap, so an offer never boxes a Result
// into an interface: offers run for every positive count of every
// verified leaf, and once storage holds k results they allocate nothing.
// A TopK is owned by one query and is not safe for concurrent use.
type TopK struct {
	k int
	h []Result
}

// NewTopK returns an empty accumulator for the k best results, with
// storage for min(k, 1024) of them. With k <= 0 it holds nothing.
func NewTopK(k int) *TopK {
	return &TopK{k: k, h: make([]Result, 0, max(0, min(k, maxTopKSlots)))}
}

// Offer keeps r if it has a positive overlap and ranks among the k best
// offered so far.
func (t *TopK) Offer(r Result) {
	if r.Overlap <= 0 {
		return
	}
	switch {
	case len(t.h) < t.k:
		t.h = append(t.h, r)
		t.up(len(t.h) - 1)
	case len(t.h) > 0 && Better(r, t.h[0]):
		t.h[0] = r
		t.down(0)
	}
}

// Threshold returns the overlap of the k-th best result held, or 0 while
// fewer than k are held. A candidate whose upper bound is strictly below
// it cannot enter the top-k; one whose bound ties it still may, by the ID
// tie-break, so it must not be pruned.
func (t *TopK) Threshold() int {
	if len(t.h) < t.k || len(t.h) == 0 {
		return 0
	}
	return t.h[0].Overlap
}

// Sorted returns the results held, best-first, in a fresh slice; nil when
// none are held.
func (t *TopK) Sorted() []Result {
	out := append([]Result(nil), t.h...)
	SortResults(out)
	return out
}

// worse orders the heap: the weaker result sits nearer the head.
func (t *TopK) worse(i, j int) bool { return Better(t.h[j], t.h[i]) }

func (t *TopK) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !t.worse(j, i) {
			return
		}
		t.h[i], t.h[j] = t.h[j], t.h[i]
		j = i
	}
}

func (t *TopK) down(i int) {
	n := len(t.h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && t.worse(j2, j) {
			j = j2
		}
		if !t.worse(j, i) {
			return
		}
		t.h[i], t.h[j] = t.h[j], t.h[i]
		i = j
	}
}

// rankCounts converts an id->overlap map into ranked top-k results,
// resolving names through the given function. It is shared by the
// inverted-index style baselines, which must rank every touched dataset.
func rankCounts(counts map[int]int, k int, name func(int) string) []Result {
	t := NewTopK(k)
	for id, c := range counts {
		t.Offer(Result{ID: id, Name: name(id), Overlap: c})
	}
	return t.Sorted()
}

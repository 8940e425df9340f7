// Package josie implements the Josie baseline of §VII-B [73]: a sorted
// inverted index whose posting lists store (dataset ID, token position,
// dataset size) triples, enabling the prefix filter — once the k-th best
// exact overlap is at least the number of unprocessed query tokens, no new
// candidate can win, and the already-seen candidates are verified by
// merging their remaining suffixes from the recorded positions.
package josie

import (
	"container/heap"
	"sort"

	"dits/internal/cellset"
	"dits/internal/dataset"
)

// posting is one entry of a posting list: dataset ds contains this token at
// position pos of its sorted token list, and has size tokens in total.
type posting struct {
	ds   int32
	pos  int32
	size int32
}

// Index is the Josie sorted inverted index over one data source.
type Index struct {
	post  map[uint64][]posting
	cells map[int]cellset.Set
	names map[int]string
}

// Build indexes all dataset nodes. Each posting list is kept sorted by
// (size, ds) as Josie's cost model requires; the extra sorting is why the
// paper's Fig. 8 finds Josie the slowest index to construct.
func Build(nodes []*dataset.Node) *Index {
	idx := &Index{
		post:  make(map[uint64][]posting),
		cells: make(map[int]cellset.Set),
		names: make(map[int]string),
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		idx.cells[n.ID] = n.Cells
		idx.names[n.ID] = n.Name
		for i, c := range n.Cells {
			idx.post[c] = append(idx.post[c], posting{
				ds: int32(n.ID), pos: int32(i), size: int32(n.Cells.Len()),
			})
		}
	}
	for c := range idx.post {
		sortPostings(idx.post[c])
	}
	return idx
}

func sortPostings(pl []posting) {
	sort.Slice(pl, func(i, j int) bool {
		if pl[i].size != pl[j].size {
			return pl[i].size < pl[j].size
		}
		return pl[i].ds < pl[j].ds
	})
}

// Insert adds a dataset, inserting each posting at its sorted position
// (the per-list binary search + shift is why Josie inserts slowest in
// Fig. 21).
func (idx *Index) Insert(n *dataset.Node) {
	idx.cells[n.ID] = n.Cells
	idx.names[n.ID] = n.Name
	size := int32(n.Cells.Len())
	for i, c := range n.Cells {
		p := posting{ds: int32(n.ID), pos: int32(i), size: size}
		pl := idx.post[c]
		at := sort.Search(len(pl), func(j int) bool {
			if pl[j].size != p.size {
				return pl[j].size > p.size
			}
			return pl[j].ds >= p.ds
		})
		pl = append(pl, posting{})
		copy(pl[at+1:], pl[at:])
		pl[at] = p
		idx.post[c] = pl
	}
}

// Delete removes a dataset from every posting list it appears in.
func (idx *Index) Delete(id int) {
	cells, ok := idx.cells[id]
	if !ok {
		return
	}
	for _, c := range cells {
		pl := idx.post[c]
		for i := range pl {
			if pl[i].ds == int32(id) {
				pl = append(pl[:i], pl[i+1:]...)
				break
			}
		}
		if len(pl) == 0 {
			delete(idx.post, c)
		} else {
			idx.post[c] = pl
		}
	}
	delete(idx.cells, id)
	delete(idx.names, id)
}

// Update replaces a dataset's cells.
func (idx *Index) Update(n *dataset.Node) {
	idx.Delete(n.ID)
	idx.Insert(n)
}

// Name returns the stored name of a dataset ID.
func (idx *Index) Name(id int) string { return idx.names[id] }

// MemoryBytes estimates the resident size: postings are 12 bytes (id,
// position, size) against STS3's 4, so Josie sits between STS3 and the
// trees in Fig. 8.
func (idx *Index) MemoryBytes() int64 {
	var bytes int64
	for _, pl := range idx.post {
		bytes += 8 + int64(len(pl))*12
	}
	return bytes
}

// Result is one ranked dataset.
type Result struct {
	ID      int
	Overlap int
}

// kthRefreshEvery controls how often the exact k-th largest partial count
// is recomputed to test the prefix-filter cutoff. Partial counts only grow
// and the remaining-token budget only shrinks, so a stale (lower) estimate
// is always safe — it just delays termination.
const kthRefreshEvery = 16

// TopK returns the k datasets with the largest exact overlap with the
// query set (ties broken toward smaller IDs), using the prefix filter: a
// dataset first appearing at query token i can overlap by at most the
// len(q)−i unprocessed tokens, so once the current k-th best partial count
// reaches that budget, no unseen dataset can enter the top-k and the
// remaining tokens only finish the counts of already-admitted candidates.
func (idx *Index) TopK(q cellset.Set, k int) []Result {
	if k <= 0 || q.Len() == 0 {
		return nil
	}
	partial := make(map[int32]int32) // candidate -> matches among processed tokens
	kthLB := int32(0)                // lower bound on the k-th largest partial

	for i := 0; i < len(q); i++ {
		remaining := int32(len(q) - i)
		if kthLB >= remaining {
			// Prefix filter fired: stop admitting, just finish the counts
			// of existing candidates over the remaining tokens.
			for j := i; j < len(q); j++ {
				for _, p := range idx.post[q[j]] {
					if _, seen := partial[p.ds]; seen {
						partial[p.ds]++
					}
				}
			}
			break
		}
		for _, p := range idx.post[q[i]] {
			partial[p.ds]++
		}
		if i%kthRefreshEvery == kthRefreshEvery-1 && len(partial) >= k {
			kthLB = kthLargest(partial, k)
		}
	}

	final := make([]Result, 0, len(partial))
	for ds, c := range partial {
		final = append(final, Result{ID: int(ds), Overlap: int(c)})
	}
	sort.Slice(final, func(a, b int) bool {
		if final[a].Overlap != final[b].Overlap {
			return final[a].Overlap > final[b].Overlap
		}
		return final[a].ID < final[b].ID
	})
	if len(final) > k {
		final = final[:k]
	}
	return final
}

// kthLargest returns the k-th largest value among the map's counts using a
// size-k min-heap.
func kthLargest(counts map[int32]int32, k int) int32 {
	h := make(minHeap, 0, k)
	for _, c := range counts {
		if len(h) < k {
			heap.Push(&h, c)
		} else if c > h[0] {
			h[0] = c
			heap.Fix(&h, 0)
		}
	}
	if len(h) < k {
		return 0
	}
	return h[0]
}

type minHeap []int32

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(int32)) }
func (h *minHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

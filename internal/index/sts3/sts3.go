// Package sts3 implements the STS3 baseline of §VII-B [39]: the plane is
// divided into cells, every dataset becomes a cell set, and a flat
// inverted index maps each cell ID to the datasets occupying it. Search
// follows the paper's characterization of STS3 (§II: "it requires scanning
// all datasets and estimating the number of set intersections, where
// pairwise comparisons are time-consuming"): the query is intersected with
// every dataset's cell set, which is why the paper finds STS3 cheap to
// build and update but slow to search and insensitive to k. The inverted
// index serves construction/update parity and the fast candidate lookup
// used by tests.
package sts3

import (
	"dits/internal/cellset"
	"dits/internal/dataset"
)

// Index is the flat inverted index over one data source.
type Index struct {
	post  map[uint64][]int32  // cell ID -> dataset IDs
	cells map[int]cellset.Set // dataset ID -> cells, for updates and ranking
	names map[int]string
}

// Build indexes all dataset nodes.
func Build(nodes []*dataset.Node) *Index {
	idx := &Index{
		post:  make(map[uint64][]int32),
		cells: make(map[int]cellset.Set),
		names: make(map[int]string),
	}
	for _, n := range nodes {
		if n != nil {
			idx.Insert(n)
		}
	}
	return idx
}

// Insert adds a dataset's cells to the posting lists.
func (idx *Index) Insert(n *dataset.Node) {
	idx.cells[n.ID] = n.Cells
	idx.names[n.ID] = n.Name
	for _, c := range n.Cells {
		idx.post[c] = append(idx.post[c], int32(n.ID))
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
		for i, ds := range pl {
			if ds == int32(id) {
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

// Update replaces a dataset's cells, touching only the changed posting
// lists' worth of work (delete + insert).
func (idx *Index) Update(n *dataset.Node) {
	idx.Delete(n.ID)
	idx.Insert(n)
}

// OverlapCounts returns |S_Q ∩ S_D| for every dataset sharing at least one
// cell with the query set, computed the STS3 way: one pairwise set
// intersection per indexed dataset.
func (idx *Index) OverlapCounts(q cellset.Set) map[int]int {
	counts := make(map[int]int)
	for id, cells := range idx.cells {
		if c := cells.IntersectCount(q); c > 0 {
			counts[id] = c
		}
	}
	return counts
}

// Name returns the stored name of a dataset ID.
func (idx *Index) Name(id int) string { return idx.names[id] }

// MemoryBytes estimates the index's resident size: posting entries only —
// the paper's Fig. 8 expects STS3 to be the smallest index.
func (idx *Index) MemoryBytes() int64 {
	var bytes int64
	for _, pl := range idx.post {
		bytes += 8 + int64(len(pl))*4
	}
	return bytes
}

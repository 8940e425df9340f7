package overlap

import (
	"dits/internal/dataset"
	"dits/internal/index/josie"
	"dits/internal/index/quadtree"
	"dits/internal/index/rtree"
	"dits/internal/index/sts3"
)

// QuadtreeSearcher performs OJSP on the quadtree baseline (§VII-C): for
// every query cell it locates the leaf holding the cell and counts the
// dataset IDs found there, then ranks all touched datasets — effectively an
// inverted-index scan, which is why its runtime barely depends on k.
type QuadtreeSearcher struct {
	Index *quadtree.Tree
}

// Name implements Searcher.
func (s *QuadtreeSearcher) Name() string { return "QuadTree" }

// TopK implements Searcher.
func (s *QuadtreeSearcher) TopK(q *dataset.Node, k int) []Result {
	if q == nil || k <= 0 {
		return nil
	}
	return rankCounts(s.Index.OverlapCounts(q.Cells), k, s.Index.Name)
}

// RtreeSearcher performs OJSP on the R-tree baseline (§VII-C): it finds all
// datasets whose MBR intersects the query MBR and verifies the exact set
// intersection of each.
type RtreeSearcher struct {
	Index *rtree.Tree
}

// Name implements Searcher.
func (s *RtreeSearcher) Name() string { return "Rtree" }

// TopK implements Searcher.
func (s *RtreeSearcher) TopK(q *dataset.Node, k int) []Result {
	if q == nil || k <= 0 {
		return nil
	}
	qc := q.CompactCells()
	res := NewTopK(k)
	for _, d := range s.Index.SearchIntersect(q.Rect) {
		// Cheap size bound first: |S_Q ∩ S_D| <= min(|S_Q|, |S_D|).
		if min(d.Cells.Len(), q.Cells.Len()) < res.Threshold() {
			continue
		}
		if c := d.CompactCells().IntersectCount(qc); c > 0 {
			res.Offer(Result{ID: d.ID, Name: d.Name, Overlap: c})
		}
	}
	return res.Sorted()
}

// STS3Searcher performs OJSP on the flat inverted index baseline: it scans
// the query's posting lists and then must rank every candidate dataset.
type STS3Searcher struct {
	Index *sts3.Index
}

// Name implements Searcher.
func (s *STS3Searcher) Name() string { return "STS3" }

// TopK implements Searcher.
func (s *STS3Searcher) TopK(q *dataset.Node, k int) []Result {
	if q == nil || k <= 0 {
		return nil
	}
	return rankCounts(s.Index.OverlapCounts(q.Cells), k, s.Index.Name)
}

// JosieSearcher performs OJSP on the Josie baseline, which terminates the
// posting-list scan early through the prefix filter.
type JosieSearcher struct {
	Index *josie.Index
}

// Name implements Searcher.
func (s *JosieSearcher) Name() string { return "Josie" }

// TopK implements Searcher.
func (s *JosieSearcher) TopK(q *dataset.Node, k int) []Result {
	if q == nil || k <= 0 {
		return nil
	}
	rs := s.Index.TopK(q.Cells, k)
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: r.ID, Name: s.Index.Name(r.ID), Overlap: r.Overlap}
	}
	return out
}

// BruteForce is the oracle searcher: it intersects the query with every
// dataset. Tests cross-check all other searchers against it.
type BruteForce struct {
	Nodes []*dataset.Node
}

// Name implements Searcher.
func (s *BruteForce) Name() string { return "BruteForce" }

// TopK implements Searcher.
func (s *BruteForce) TopK(q *dataset.Node, k int) []Result {
	if q == nil || k <= 0 {
		return nil
	}
	qc := q.CompactCells()
	res := NewTopK(k)
	for _, d := range s.Nodes {
		if d == nil {
			continue
		}
		if c := d.CompactCells().IntersectCount(qc); c > 0 {
			res.Offer(Result{ID: d.ID, Name: d.Name, Overlap: c})
		}
	}
	return res.Sorted()
}

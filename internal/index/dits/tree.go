// Package dits implements the paper's DIstributed Tree-based Spatial index:
// the per-source local index DITS-L (§V-A, Algorithm 1) — a top-down
// ball-tree over dataset nodes whose leaves carry an inverted index from
// cell ID to the datasets containing it — and the centralized global index
// DITS-G (§V-B) built over the sources' root-node summaries.
//
// # Concurrency and ownership
//
// A Local and everything reachable from it (tree nodes, leaf inverted
// indexes, compact leaf summaries, the dataset nodes themselves) are
// immutable under search: any number of goroutines — the searchers in
// search/{overlap,coverage} and the worker pools in search/exec — may
// read one index concurrently. File-backed indexes (lazy.go,
// internal/index/ditsfile) materialize leaf payloads on first touch under
// a per-leaf sync.Once — a logically read-only load that stays safe under
// concurrent searches. Mutations (Insert, Delete, Update) demand
// exclusive access: no search may run while one is in flight; the caller
// provides that exclusion. Dataset nodes handed to Build are owned by
// the index afterwards (Build caches their compact form via
// EnsureCompact) and must not be mutated by the caller.
//
// A Global is immutable after construction; WithSource/WithoutSource
// return new path-copied trees sharing untouched subtrees, which is what
// lets the federation center publish them in atomic epoch snapshots.
package dits

import (
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

// TreeNode is a node of the DITS-L tree. Internal nodes (Definition 13)
// have Left and Right children; leaf nodes (Definition 14) hold up to F
// dataset nodes in Children plus the inverted index — flat posting lists
// at rest, the Inv map once a mutation has touched the leaf. All nodes carry
// the MBR (in grid-coordinate space), pivot, radius, and a parent pointer —
// the bidirectional structure Appendix C relies on for fast updates.
type TreeNode struct {
	Rect   geo.Rect
	O      geo.Point
	R      float64
	Parent *TreeNode

	// Internal node fields.
	Left, Right *TreeNode

	// Leaf node fields.
	Children []*dataset.Node
	// Inv maps cell ID -> positions in Children. It is nil until the first
	// mutation of the leaf (ensureInv); until then post stands in for it.
	Inv map[uint64][]int32
	// MaxCells caches the largest |S_D| among Children: min(|S_Q|,
	// MaxCells) is a free upper bound on any intersection in the leaf,
	// checked before the O(|S_Q|) Lemma 2/3 bounds.
	MaxCells int

	// unionC and allC summarize the leaf for the container-based cell-set
	// engine: the union of the children's cells (a query cell outside it
	// cannot contribute — Lemma 2) and the cells present in every child
	// (a query cell inside it is guaranteed in all of them — Lemma 3).
	// unionC is also what the at-rest posting lists are keyed by (post).
	// Maintained by refreshGeometry and the Insert fast path.
	unionC, allC *cellset.Compact

	// post is the inverted index at rest (lazy.go): flat posting lists,
	// built from the children for a heap-built leaf and aliasing the file
	// for a file-backed one, dropped when a mutation builds Inv. lazy
	// materializes a file-backed leaf's payload on first touch and is nil
	// on heap-built leaves.
	lazy *lazyLeaf
	post *LeafPostings
}

// IsLeaf reports whether n is a leaf node.
func (n *TreeNode) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// refreshGeometry recomputes Rect, O, and R from the node's children
// (dataset nodes for leaves, subtrees for internal nodes).
func (n *TreeNode) refreshGeometry() {
	r := geo.EmptyRect
	if n.IsLeaf() {
		n.MaxCells = 0
		for _, c := range n.Children {
			r = r.Union(c.Rect)
			if cov := c.Coverage(); cov > n.MaxCells {
				n.MaxCells = cov
			}
		}
		n.refreshSummaries()
	} else {
		if n.Left != nil {
			r = r.Union(n.Left.Rect)
		}
		if n.Right != nil {
			r = r.Union(n.Right.Rect)
		}
	}
	n.Rect = r
	if r.IsEmpty() {
		n.O = geo.Point{}
		n.R = 0
		return
	}
	n.O = r.Center()
	n.R = r.Radius()
}

// refreshSummaries recomputes the leaf's compact summaries from its
// children. It runs in mutation contexts only (build, delete, update);
// the Insert fast path updates the summaries incrementally instead.
func (n *TreeNode) refreshSummaries() {
	if len(n.Children) == 0 {
		n.unionC, n.allC = nil, nil
		return
	}
	u := n.Children[0].CompactCells()
	a := u
	for _, c := range n.Children[1:] {
		cc := c.CompactCells()
		u = u.Union(cc)
		a = a.Intersect(cc)
	}
	n.unionC, n.allC = u, a
}

// addToSummaries folds one more child's cells into the leaf summaries
// (the Insert fast path: no full recomputation).
func (n *TreeNode) addToSummaries(nd *dataset.Node) {
	cc := nd.CompactCells()
	if len(n.Children) == 1 {
		n.unionC, n.allC = cc, cc
		return
	}
	n.unionC = n.unionC.Union(cc)
	n.allC = n.allC.Intersect(cc)
}

// rebuildInv reconstructs the leaf's mutable inverted index from its
// children; ensureInv calls it when the first mutation reaches a leaf. Point
// mutations then use the incremental addInv/removeInv/moveInv, so an
// insert or delete touches only the affected dataset's postings.
func (n *TreeNode) rebuildInv() {
	n.Inv = make(map[uint64][]int32)
	for i, c := range n.Children {
		eachCell(c, func(cell uint64) {
			n.Inv[cell] = append(n.Inv[cell], int32(i))
		})
	}
}

// addInv appends postings for the dataset at child position pos.
func (n *TreeNode) addInv(nd *dataset.Node, pos int) {
	if n.Inv == nil {
		n.Inv = make(map[uint64][]int32)
	}
	eachCell(nd, func(cell uint64) {
		n.Inv[cell] = append(n.Inv[cell], int32(pos))
	})
}

// removeInv deletes the postings of the dataset that was at position pos.
func (n *TreeNode) removeInv(nd *dataset.Node, pos int) {
	eachCell(nd, func(cell uint64) {
		pl := n.Inv[cell]
		for i, p := range pl {
			if p == int32(pos) {
				pl[i] = pl[len(pl)-1]
				pl = pl[:len(pl)-1]
				break
			}
		}
		if len(pl) == 0 {
			delete(n.Inv, cell)
		} else {
			n.Inv[cell] = pl
		}
	})
}

// moveInv rewrites the postings of nd from child position from to position
// to (used when a delete swap-moves the last child into the freed slot).
func (n *TreeNode) moveInv(nd *dataset.Node, from, to int) {
	eachCell(nd, func(cell uint64) {
		pl := n.Inv[cell]
		for i, p := range pl {
			if p == int32(from) {
				pl[i] = int32(to)
				break
			}
		}
	})
}

// inRect reports whether cell c's grid coordinates fall inside the node's
// MBR. Decoding is a handful of bit operations, much cheaper than a map
// lookup, so the map pass of OverlapCounts clips query cells against the
// leaf rectangle first.
func (n *TreeNode) inRect(c uint64) bool {
	x, y := geo.ZDecode(c)
	fx, fy := float64(x), float64(y)
	return fx >= n.Rect.MinX && fx <= n.Rect.MaxX && fy >= n.Rect.MinY && fy <= n.Rect.MaxY
}

// sparseDensity is the cells-per-chunk threshold below which a query is
// verified from the leaf's inverted index. The chunk merge's word-parallel
// advantage needs dense (bitmap) chunks — real clustered datasets sit
// around 30–170 cells per chunk, where repeating a sparse chunk merge per
// leaf child loses to one pass over the postings; synthetic dense patches
// sit in the thousands, where the chunk merge wins by an order of
// magnitude. Every pass returns the same counts, so this is purely a cost
// choice.
const sparseDensity = 512

// minKernelChildren is the leaf size below which the map pass is not worth
// it: with very few children the chunk merge's per-child cost is already
// minimal.
const minKernelChildren = 4

// LeafQuery is one OJSP query in the forms leaf verification reads: the
// container form every pass starts from and, when the caller holds one, the
// flat set the map pass of a mutated leaf walks.
type LeafQuery struct {
	Cells *cellset.Compact
	Flat  cellset.Set // may be nil: mutated leaves then take the chunk merge
}

// NewLeafQuery prepares q once per query; CompactCells converts a
// hand-built node here rather than at every leaf.
func NewLeafQuery(q *dataset.Node) LeafQuery {
	return LeafQuery{Cells: q.CompactCells(), Flat: q.Cells}
}

// LeafScratch is the working memory of OverlapCounts. Each worker owns one
// and passes it to every leaf it verifies, so after the buffers have grown
// to the widest leaf the verification loop allocates nothing. The zero
// value is ready to use.
type LeafScratch struct {
	counts []int
	ranks  []uint32
}

// OverlapCounts is the verification step of Algorithm 2 for one leaf: the
// Lemma 2 bound |S_Q ∩ ∪children| and, for a leaf the bound does not prune,
// the exact |S_Q ∩ S_D| of every child, indexed like Children. It returns
// nil for a pruned leaf — one whose bound is zero or strictly below
// threshold, the caller's running k-th best overlap (a tie survives, so ID
// tie-breaks are unaffected; a threshold of 0 never prunes a leaf that can
// contribute). The returned slice lives in s until the next call.
//
// At rest the leaf's posting lists are keyed by rank in the children's cell
// union, so one AppendIntersectRanks against that union yields the bound —
// the number of ranks — and the lists to count. A leaf a mutation has
// switched to the Inv map takes the bound from the union summary and the
// counts from the map; a dense query (sparseDensity) takes the word-parallel
// chunk merge per child. All three return identical counts.
func (n *TreeNode) OverlapCounts(q LeafQuery, threshold int, s *LeafScratch) []int {
	n.EnsureLoaded()
	sparse := q.Cells.Len() < sparseDensity*q.Cells.NumChunks()
	if p := n.post; sparse && n.Inv == nil && p != nil {
		s.ranks = n.unionC.AppendIntersectRanks(q.Cells, s.ranks[:0])
		if ub := len(s.ranks); ub == 0 || ub < threshold {
			return nil
		}
		counts := s.zeroedCounts(len(n.Children))
		for _, r := range s.ranks {
			for _, pos := range p.list(int(r)) {
				counts[pos]++
			}
		}
		return counts
	}
	if ub := q.Cells.IntersectCount(n.unionC); ub == 0 || ub < threshold {
		return nil
	}
	counts := s.zeroedCounts(len(n.Children))
	switch {
	case !sparse || n.Inv == nil || len(q.Flat) == 0 || len(n.Children) < minKernelChildren:
		for i, d := range n.Children {
			counts[i] = q.Cells.IntersectCount(d.CompactCells())
		}
	case len(n.Inv) < len(q.Flat):
		for c, pl := range n.Inv {
			if !q.Flat.Contains(c) {
				continue
			}
			for _, idx := range pl {
				counts[idx]++
			}
		}
	default:
		for _, c := range q.Flat {
			if !n.inRect(c) {
				continue
			}
			for _, idx := range n.Inv[c] {
				counts[idx]++
			}
		}
	}
	return counts
}

// zeroedCounts returns the count buffer resized to n and zeroed, regrowing
// it only when a wider leaf than any before comes along.
func (s *LeafScratch) zeroedCounts(n int) []int {
	if cap(s.counts) < n {
		s.counts = make([]int, n)
	}
	s.counts = s.counts[:n]
	clear(s.counts)
	return s.counts
}

// visitLeaves calls fn for every leaf under n.
func (n *TreeNode) visitLeaves(fn func(*TreeNode)) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		fn(n)
		return
	}
	n.Left.visitLeaves(fn)
	n.Right.visitLeaves(fn)
}

// countNodes returns the number of tree nodes (internal + leaf) under n.
func (n *TreeNode) countNodes() int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return 1 + n.Left.countNodes() + n.Right.countNodes()
}

// height returns the height of the subtree rooted at n (a single leaf has
// height 1).
func (n *TreeNode) height() int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	l, r := n.Left.height(), n.Right.height()
	if l > r {
		return 1 + l
	}
	return 1 + r
}

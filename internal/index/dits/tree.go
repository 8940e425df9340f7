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
	// They turn OverlapBoundsCompact into two word-parallel intersection
	// counts. Maintained by refreshGeometry and the Insert fast path.
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
// lookup, so bounds and verification clip query cells against the leaf
// rectangle first.
func (n *TreeNode) inRect(c uint64) bool {
	x, y := geo.ZDecode(c)
	fx, fy := float64(x), float64(y)
	return fx >= n.Rect.MinX && fx <= n.Rect.MaxX && fy >= n.Rect.MinY && fy <= n.Rect.MaxY
}

// OverlapBounds returns the Lemma 2 upper bound and Lemma 3 lower bound on
// the set intersection between the query cells and any dataset in this
// leaf: ub counts query cells present in the inverted index at all, lb
// counts query cells whose posting list covers every child of the leaf.
// It iterates whichever side is smaller: the query's cells (clipped to the
// leaf MBR) or the leaf's posting keys.
func (n *TreeNode) OverlapBounds(q cellset.Set) (lb, ub int) {
	n.EnsureLoaded()
	if n.Inv == nil && n.post != nil {
		return n.overlapBoundsPost(q)
	}
	full := len(n.Children)
	if len(n.Inv) < len(q) {
		for c, pl := range n.Inv {
			if !q.Contains(c) {
				continue
			}
			ub++
			if len(pl) == full {
				lb++
			}
		}
		return lb, ub
	}
	for _, c := range q {
		if !n.inRect(c) {
			continue
		}
		pl, ok := n.Inv[c]
		if !ok {
			continue
		}
		ub++
		if len(pl) == full {
			lb++
		}
	}
	return lb, ub
}

// OverlapCounts computes, via one pass over the leaf's posting lists, the
// exact |S_Q ∩ S_D| for every dataset node in the leaf. The returned slice
// is indexed like Children. This is the verification step of Algorithm 2.
func (n *TreeNode) OverlapCounts(q cellset.Set) []int {
	return n.AppendOverlapCounts(q, nil)
}

// AppendOverlapCounts is OverlapCounts writing into counts' backing array
// when it has the capacity — the zero-alloc variant the executor's leaf
// hot loop threads a per-worker scratch slice through. The returned slice
// has exactly len(Children) entries and replaces counts.
func (n *TreeNode) AppendOverlapCounts(q cellset.Set, counts []int) []int {
	n.EnsureLoaded()
	counts = resizeCounts(counts, len(n.Children))
	if n.Inv == nil && n.post != nil {
		return n.appendOverlapCountsPost(q, counts)
	}
	if len(n.Inv) < len(q) {
		for c, pl := range n.Inv {
			if !q.Contains(c) {
				continue
			}
			for _, idx := range pl {
				counts[idx]++
			}
		}
		return counts
	}
	for _, c := range q {
		if !n.inRect(c) {
			continue
		}
		for _, idx := range n.Inv[c] {
			counts[idx]++
		}
	}
	return counts
}

// OverlapBoundsCompact is OverlapBounds on the container engine: the
// Lemma 2 upper bound is |q ∩ ∪children| against the cached union summary
// and the Lemma 3 lower bound |q ∩ ∩children| against the cached
// all-children summary — two word-parallel intersection counts instead of
// a per-cell posting-list walk. Results are identical to OverlapBounds.
func (n *TreeNode) OverlapBoundsCompact(q *cellset.Compact) (lb, ub int) {
	n.EnsureLoaded()
	return q.IntersectCount(n.allC), q.IntersectCount(n.unionC)
}

// OverlapUBCompact returns only the Lemma 2 upper bound. The top-k
// searcher prunes on ub alone (the lower bound is subsumed by the exact
// counting that follows), so it skips the allC intersection that
// OverlapBoundsCompact would waste on the hot path.
func (n *TreeNode) OverlapUBCompact(q *cellset.Compact) int {
	n.EnsureLoaded()
	return q.IntersectCount(n.unionC)
}

// OverlapCountsCompact is OverlapCounts on the container engine: the exact
// |S_Q ∩ S_D| for every dataset node in the leaf, one chunk-wise
// intersection count per child. Results are identical to OverlapCounts.
func (n *TreeNode) OverlapCountsCompact(q *cellset.Compact) []int {
	return n.AppendOverlapCountsCompact(q, nil)
}

// AppendOverlapCountsCompact is OverlapCountsCompact reusing counts'
// backing array when capacity allows; see AppendOverlapCounts.
func (n *TreeNode) AppendOverlapCountsCompact(q *cellset.Compact, counts []int) []int {
	n.EnsureLoaded()
	counts = resizeCounts(counts, len(n.Children))
	for i, d := range n.Children {
		counts[i] = q.IntersectCount(d.CompactCells())
	}
	return counts
}

// resizeCounts returns counts resized to n and zeroed, reusing the
// backing array when it is big enough.
func resizeCounts(counts []int, n int) []int {
	if cap(counts) < n {
		return make([]int, n)
	}
	counts = counts[:n]
	clear(counts)
	return counts
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

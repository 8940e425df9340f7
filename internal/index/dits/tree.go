// Package dits implements the paper's DIstributed Tree-based Spatial index:
// the per-source local index DITS-L (§V-A, Algorithm 1) — a top-down
// ball-tree over dataset nodes whose leaves carry an inverted index from
// cell ID to the datasets containing it — and the centralized global index
// DITS-G (§V-B) built over the sources' root-node summaries.
//
// A leaf's inverted index has one form, heap-built or mmap'd, at rest or
// mutated: flat posting lists keyed by a cell's rank in the leaf's union
// summary (LeafPostings). Verification (OverlapCounts) reads them through
// the ranks one pass of the query's cellset.Probe over that union yields:
// the probe holds each query chunk as a bitmap, built once per query, so
// a union cell costs one bit test. Build and every mutation
// summarise a leaf in one pass (refreshSummaries): cellset.UnionRanks
// unions the children's chunks k ways and hands back each child cell's
// rank in the union, and the postings are a counting sort of those ranks,
// so a leaf costs time linear in its child-cell pairs. Build runs on the
// caller's goroutine, as the baselines of Fig. 8 do; the gridding before
// it, dataset.Source.Nodes, runs on GOMAXPROCS goroutines.
//
// # Concurrency and ownership
//
// A Local and everything reachable from it (tree nodes, leaf inverted
// indexes, compact leaf summaries, the dataset nodes themselves) are
// immutable under search: any number of goroutines — the searchers in
// search/{overlap,coverage,exec}, one per request a source serves — may
// read one index concurrently. File-backed indexes (lazy.go,
// internal/index/ditsfile) materialize leaf payloads on first touch under
// a per-leaf sync.Once — a logically read-only load that stays safe under
// concurrent searches. Mutations (Insert, Delete, Update) demand
// exclusive access: no search may run while one is in flight; the caller
// provides that exclusion. Dataset nodes handed to Build are owned by
// the index afterwards (Build caches their compact form via
// EnsureCompact) and must not be mutated by the caller.
//
// A Global is immutable after construction. The federation center builds
// one per membership epoch from that epoch's member summaries and
// publishes it in an atomic epoch snapshot.
package dits

import (
	"cmp"
	"slices"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

// TreeNode is a node of the DITS-L tree. Internal nodes (Definition 13)
// have Left and Right children; leaf nodes (Definition 14) hold up to F
// dataset nodes in Children plus the inverted index from cell to children.
// All nodes carry the MBR (in grid-coordinate space), pivot, radius, and a
// parent pointer — the bidirectional structure Appendix C relies on for
// fast updates.
type TreeNode struct {
	Rect   geo.Rect
	O      geo.Point
	R      float64
	Parent *TreeNode

	// Internal node fields.
	Left, Right *TreeNode

	// Leaf node fields.
	Children []*dataset.Node
	// MaxCells caches the largest |S_D| among Children: min(|S_Q|,
	// MaxCells) is a free upper bound on any intersection in the leaf,
	// checked before the O(|S_Q|) Lemma 2 bound.
	MaxCells int

	// unionC summarizes the leaf for the container-based cell-set engine:
	// the union of the children's cells (a query cell outside it cannot
	// contribute — Lemma 2). It is also what the posting lists are keyed
	// by: by rank. Maintained, with post, by refreshSummaries.
	unionC *cellset.Compact
	// ownBytes is the part of unionC's MemoryBytes no child shares
	// (MemoryBytes counts it).
	ownBytes int64

	// post is the leaf's one inverted index (lazy.go): rank-keyed posting
	// lists, built from the children for a heap-built or mutated leaf and
	// aliasing the file for a file-backed one. lazy materializes a
	// file-backed leaf's payload on first touch and is nil on heap-built
	// leaves.
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

// refreshSummaries recomputes the leaf's union summary and postings from
// its children in one pass: cellset.UnionRanks yields the union and every
// child cell's rank in it, and the postings are a counting sort of those
// ranks. Build, Insert, Delete, Update and splits all run it, in time
// linear in the leaf's child-cell pairs.
func (n *TreeNode) refreshSummaries() {
	if len(n.Children) == 0 {
		n.unionC, n.post, n.ownBytes = nil, nil, 0
		return
	}
	cs := make([]*cellset.Compact, len(n.Children))
	for i, c := range n.Children {
		cs[i] = c.CompactCells()
	}
	u, where, owned := cellset.UnionRanks(cs, nil)
	n.unionC, n.post, n.ownBytes = u, newLeafPostings(n.Children, u.Len(), where), owned
}

// LeafScratch is the working memory of OverlapCounts. Each worker owns one
// and passes it to every leaf it verifies, so after the buffers have grown
// to the widest leaf the verification loop allocates nothing. The zero
// value is ready to use; NewLeafScratch hands out one whose buffers have
// already grown in earlier queries.
type LeafScratch struct {
	counts []int
	ranks  []uint32
}

// leafScratches is the free list behind NewLeafScratch, 16 slots like
// cellset's probe list; a scratch that finds it full is dropped. A
// channel, not a sync.Pool, so that a warm query allocates nothing under
// the race detector as well.
var leafScratches = make(chan *LeafScratch, 16)

// NewLeafScratch returns a scratch from the free list, or a new one. The
// caller must Release it when done.
func NewLeafScratch() *LeafScratch {
	select {
	case s := <-leafScratches:
		return s
	default:
		return &LeafScratch{}
	}
}

// Release returns s to the free list. s must not be used afterwards.
func (s *LeafScratch) Release() {
	select {
	case leafScratches <- s:
	default:
	}
}

// OverlapCounts is the verification step of Algorithm 2 for one leaf: the
// Lemma 2 bound |S_Q ∩ ∪children| and, for a leaf the bound does not prune,
// the exact |S_Q ∩ S_D| of every child, indexed like Children. It returns
// nil for a pruned leaf — one whose bound is zero or strictly below
// threshold, the caller's running k-th best overlap (a tie survives, so ID
// tie-breaks are unaffected; a threshold of 0 never prunes a leaf that can
// contribute). The returned slice lives in s until the next call.
//
// The leaf's posting lists are keyed by rank in the children's cell union,
// so one rank pass of the query's probe over that union
// (cellset.Probe.AppendRanks) yields the bound — the number of ranks — and
// the lists to count. Every query, sparse or dense, takes this one pass.
func (n *TreeNode) OverlapCounts(q *cellset.Probe, threshold int, s *LeafScratch) []int {
	n.EnsureLoaded()
	s.ranks = q.AppendRanks(n.unionC, s.ranks[:0])
	if ub := len(s.ranks); ub == 0 || ub < threshold {
		return nil
	}
	counts := s.zeroedCounts(len(n.Children))
	for _, r := range s.ranks {
		for _, pos := range n.post.list(int(r)) {
			counts[pos]++
		}
	}
	return counts
}

// LeafCand is a leaf that survived the filter step of Algorithm 2, with its
// free upper bound min(|S_Q|, MaxCells).
type LeafCand struct {
	Leaf *TreeNode
	UB   int
}

// FilterLeaves is the filter step of Algorithm 2 (internal-node MBR
// pruning, lines 24-26): the leaves under n whose MBR intersects q's and
// whose free upper bound is positive, in decreasing bound order — the
// verification order that raises the prune threshold fastest, so that once
// one leaf's bound is below the running k-th best every later one is too.
func (n *TreeNode) FilterLeaves(q *dataset.Node) []LeafCand {
	cands := n.appendLeaves(q.Rect, q.Coverage(), nil)
	slices.SortFunc(cands, func(a, b LeafCand) int { return cmp.Compare(b.UB, a.UB) })
	return cands
}

func (n *TreeNode) appendLeaves(r geo.Rect, cov int, dst []LeafCand) []LeafCand {
	if n == nil || !n.Rect.Intersects(r) {
		return dst
	}
	if !n.IsLeaf() {
		return n.Right.appendLeaves(r, cov, n.Left.appendLeaves(r, cov, dst))
	}
	if ub := min(cov, n.MaxCells); ub > 0 {
		dst = append(dst, LeafCand{Leaf: n, UB: ub})
	}
	return dst
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

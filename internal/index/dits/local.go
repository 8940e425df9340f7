package dits

import (
	"cmp"
	"fmt"
	"slices"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

// DefaultLeafCapacity is the default f when callers pass a non-positive
// capacity, matching the middle of the paper's parameter grid (Table II).
const DefaultLeafCapacity = 30

// MaxLeafCapacity is the largest leaf capacity an index is built with: a
// leaf's posting lists hold child positions as uint16.
const MaxLeafCapacity = 1 << 16

// leafCapacity resolves a caller's f: the default for a non-positive value,
// capped at MaxLeafCapacity.
func leafCapacity(f int) int {
	if f <= 0 {
		return DefaultLeafCapacity
	}
	return min(f, MaxLeafCapacity)
}

// Local is the DITS-L index of one data source: the ball tree plus the
// bookkeeping (dataset-by-ID, leaf-of-dataset) that Appendix C's update
// operations need. Local is not safe for concurrent mutation; concurrent
// read-only searches are safe.
type Local struct {
	Grid geo.Grid
	F    int // leaf capacity f
	Root *TreeNode

	// Backing is non-nil for file-backed indexes (internal/index/ditsfile):
	// the reader that owns the underlying mapping and reports its memory
	// footprint. Heap-built indexes leave it nil.
	Backing BackingInfo

	byID   map[int]*dataset.Node
	leafOf map[int]*TreeNode
}

// Build constructs the DITS-L index over the given dataset nodes using the
// top-down median split of Algorithm 1. Nil nodes (empty datasets) are
// skipped. The input slice is not modified.
func Build(g geo.Grid, nodes []*dataset.Node, f int) *Local {
	l := &Local{
		Grid:   g,
		F:      leafCapacity(f),
		byID:   make(map[int]*dataset.Node),
		leafOf: make(map[int]*TreeNode),
	}
	ds := make([]*dataset.Node, 0, len(nodes))
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if _, dup := l.byID[n.ID]; dup {
			panic(fmt.Sprintf("dits: duplicate dataset ID %d", n.ID))
		}
		n.EnsureCompact()
		l.byID[n.ID] = n
		ds = append(ds, n)
	}
	l.Root = l.build(ds, nil)
	return l
}

// build implements Algorithm 1: make the node covering nds; if it fits in a
// leaf attach the children and the inverted index, otherwise split on the
// widest MBR dimension at the median pivot and recurse.
func (l *Local) build(nds []*dataset.Node, parent *TreeNode) *TreeNode {
	root := &TreeNode{Parent: parent}
	if len(nds) <= l.F {
		root.Children = append([]*dataset.Node(nil), nds...)
		root.refreshGeometry()
		for _, c := range nds {
			l.leafOf[c.ID] = root
		}
		return root
	}
	r := geo.EmptyRect
	for _, n := range nds {
		r = r.Union(n.Rect)
	}
	root.Rect = r
	root.O = r.Center()
	root.R = r.Radius()

	// Split dimension: the axis on which the node's MBR is widest
	// (Algorithm 1, lines 11-14). Split position: the median of the child
	// pivots on that axis. The pseudocode compares against the root pivot,
	// but that can leave one side empty on skewed data; the text's median
	// split is used here and guarantees both halves are non-empty.
	splitX := r.Width() >= r.Height()
	key := func(n *dataset.Node) float64 {
		if splitX {
			return n.O.X
		}
		return n.O.Y
	}
	sorted := append([]*dataset.Node(nil), nds...)
	slices.SortStableFunc(sorted, func(a, b *dataset.Node) int { return cmp.Compare(key(a), key(b)) })
	mid := len(sorted) / 2

	root.Left = l.build(sorted[:mid], root)
	root.Right = l.build(sorted[mid:], root)
	return root
}

// Len returns the number of indexed datasets.
func (l *Local) Len() int { return len(l.byID) }

// Get returns the indexed dataset node with the given ID, or nil. On a
// file-backed index the owning leaf is materialized first, so the
// returned node always carries its cells.
func (l *Local) Get(id int) *dataset.Node {
	if leaf := l.leafOf[id]; leaf != nil {
		leaf.EnsureLoaded()
	}
	return l.byID[id]
}

// All returns all indexed dataset nodes in unspecified order. On a
// file-backed index this materializes every leaf.
func (l *Local) All() []*dataset.Node {
	out := make([]*dataset.Node, 0, len(l.byID))
	l.Root.visitLeaves(func(leaf *TreeNode) {
		leaf.EnsureLoaded()
		out = append(out, leaf.Children...)
	})
	return out
}

// Summary returns the root-node summary this source uploads to the data
// center when the global index is built (§V-B): the root's MBR and ball
// converted back to raw (latitude/longitude) coordinates, so sources with
// different resolutions are comparable.
func (l *Local) Summary(name string) SourceSummary {
	raw := l.RawRect(l.Root.Rect)
	return SourceSummary{
		Name: name,
		Rect: raw,
		O:    raw.Center(),
		R:    raw.Radius(),
		Grid: l.Grid,
	}
}

// RawRect converts a rectangle in grid-coordinate space (cell indices) back
// to raw coordinates, covering the full extent of the boundary cells.
func (l *Local) RawRect(r geo.Rect) geo.Rect {
	if r.IsEmpty() {
		return geo.EmptyRect
	}
	g := l.Grid
	return geo.Rect{
		MinX: g.Origin.X + r.MinX*g.CellW,
		MinY: g.Origin.Y + r.MinY*g.CellH,
		MaxX: g.Origin.X + (r.MaxX+1)*g.CellW,
		MaxY: g.Origin.Y + (r.MaxY+1)*g.CellH,
	}
}

// NumTreeNodes returns the number of tree nodes, the dominant term of the
// index's space complexity analysis (Appendix D).
func (l *Local) NumTreeNodes() int { return l.Root.countNodes() }

// Height returns the height of the tree.
func (l *Local) Height() int { return l.Root.height() }

// MemoryBytes estimates the resident size of the index: tree nodes plus
// posting-list entries plus the cell sets held by dataset nodes. It is the
// figure reported in the Fig. 8 memory comparison. A file-backed index
// delegates to its reader's resident estimate — walking its leaves here
// would fault every payload in just to measure it.
func (l *Local) MemoryBytes() int64 {
	if l.Backing != nil {
		return l.Backing.ResidentEstBytes()
	}
	const nodeSize = 96 // TreeNode header: rect + pivot + radius + pointers
	var bytes int64
	l.Root.visitLeaves(func(leaf *TreeNode) {
		if p := leaf.post; p != nil {
			bytes += int64(len(p.Ends))*4 + int64(len(p.Entries))*2
		}
		for _, c := range leaf.Children {
			bytes += int64(c.Cells.Len())*8 + 64 // cell set + node header
			bytes += c.Compact.MemoryBytes()     // container representation
		}
		// The unionC/allC leaf summaries are not counted: their containers
		// largely alias the children's (Union/Intersect share containers
		// for chunks present on one side, and a single-child leaf aliases
		// the child outright), so adding them would double-count.
	})
	bytes += int64(l.Root.countNodes()) * nodeSize
	return bytes
}

// CheckInvariants validates the structural invariants of the tree and
// returns a descriptive error when one is violated. Tests run it after
// builds and after random update sequences.
func (l *Local) CheckInvariants() error {
	seen := make(map[int]bool)
	var check func(n *TreeNode, parent *TreeNode) error
	check = func(n *TreeNode, parent *TreeNode) error {
		if n == nil {
			return fmt.Errorf("dits: nil tree node")
		}
		if n.Parent != parent {
			return fmt.Errorf("dits: bad parent pointer at %v", n.Rect)
		}
		if n.IsLeaf() {
			n.EnsureLoaded()
			if err := n.LoadErr(); err != nil {
				return fmt.Errorf("dits: leaf at %v failed to materialize: %w", n.Rect, err)
			}
			if len(n.Children) > l.F {
				return fmt.Errorf("dits: leaf overflow: %d > f=%d", len(n.Children), l.F)
			}
			maxCov := 0
			var union, all *cellset.Compact
			for i, c := range n.Children {
				if seen[c.ID] {
					return fmt.Errorf("dits: dataset %d appears twice", c.ID)
				}
				seen[c.ID] = true
				if !n.Rect.ContainsRect(c.Rect) {
					return fmt.Errorf("dits: leaf rect %v misses child %d rect %v", n.Rect, c.ID, c.Rect)
				}
				if l.leafOf[c.ID] != n {
					return fmt.Errorf("dits: leafOf[%d] stale", c.ID)
				}
				cc := c.CompactCells()
				// File-backed children carry only the container form; the
				// flat/compact agreement check applies when both exist.
				if c.Cells != nil && !cc.Equal(cellset.FromSet(c.Cells)) {
					return fmt.Errorf("dits: dataset %d compact cells out of sync with flat cells", c.ID)
				}
				if cov := c.Coverage(); cov > maxCov {
					maxCov = cov
				}
				if i == 0 {
					union, all = cc, cc
				} else {
					union = union.Union(cc)
					all = all.Intersect(cc)
				}
			}
			if n.MaxCells != maxCov {
				return fmt.Errorf("dits: leaf MaxCells %d != max child coverage %d at %v", n.MaxCells, maxCov, n.Rect)
			}
			// The compact leaf summaries must agree with the children they
			// summarize: unionC is the union of the children's cells, allC
			// the cells present in every child.
			if !n.unionC.Equal(union) {
				return fmt.Errorf("dits: leaf union summary out of sync at %v", n.Rect)
			}
			if !n.allC.Equal(all) {
				return fmt.Errorf("dits: leaf all-children summary out of sync at %v", n.Rect)
			}
			// The postings must be exactly the ones the children imply: no
			// missing, extra or misordered entry.
			got, want := n.post, newLeafPostings(n.Children, union)
			if got == nil {
				got = &LeafPostings{}
			}
			if !slices.Equal(got.Ends, want.Ends) || !slices.Equal(got.Entries, want.Entries) {
				return fmt.Errorf("dits: leaf postings out of sync at %v", n.Rect)
			}
			return nil
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("dits: internal node with missing child")
		}
		if !n.Rect.ContainsRect(n.Left.Rect) || !n.Rect.ContainsRect(n.Right.Rect) {
			return fmt.Errorf("dits: internal rect %v misses children", n.Rect)
		}
		if err := check(n.Left, n); err != nil {
			return err
		}
		return check(n.Right, n)
	}
	if err := check(l.Root, nil); err != nil {
		return err
	}
	if len(seen) != len(l.byID) {
		return fmt.Errorf("dits: tree holds %d datasets, byID holds %d", len(seen), len(l.byID))
	}
	return nil
}

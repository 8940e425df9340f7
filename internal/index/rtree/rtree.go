// Package rtree implements the R-tree baseline of §VII-B [27]: a Guttman
// R-tree with quadratic split built over the datasets' MBRs in grid
// coordinate space. Overlap search collects every dataset whose MBR
// intersects the query MBR and verifies the exact set intersection.
package rtree

import (
	"dits/internal/dataset"
	"dits/internal/geo"
)

// DefaultMaxEntries is the default node capacity M.
const DefaultMaxEntries = 8

// node is an R-tree node. Leaf nodes store dataset nodes in data; internal
// nodes store child pointers.
type node struct {
	rect     geo.Rect
	parent   *node
	children []*node
	data     []*dataset.Node
	leaf     bool
}

// Tree is a dynamic R-tree over dataset nodes.
type Tree struct {
	root   *node
	max    int // M: max entries per node
	min    int // m: min entries per node (M/2)
	leafOf map[int]*node
}

// New creates an empty R-tree with node capacity maxEntries (M). Passing a
// non-positive capacity selects DefaultMaxEntries.
func New(maxEntries int) *Tree {
	if maxEntries <= 1 {
		maxEntries = DefaultMaxEntries
	}
	return &Tree{
		root:   &node{leaf: true},
		max:    maxEntries,
		min:    maxEntries / 2,
		leafOf: make(map[int]*node),
	}
}

// Build inserts all dataset nodes one by one (the classical dynamic
// construction the paper times in Fig. 8).
func Build(maxEntries int, nodes []*dataset.Node) *Tree {
	t := New(maxEntries)
	for _, n := range nodes {
		if n != nil {
			t.Insert(n)
		}
	}
	return t
}

// Insert adds a dataset node.
func (t *Tree) Insert(d *dataset.Node) {
	leaf := t.chooseLeaf(t.root, d.Rect)
	leaf.data = append(leaf.data, d)
	leaf.rect = leaf.rect.Union(d.Rect)
	t.leafOf[d.ID] = leaf
	if len(leaf.data) > t.max {
		t.splitNode(leaf)
	} else {
		t.adjustUp(leaf.parent)
	}
}

// chooseLeaf descends to the leaf needing the least area enlargement.
func (t *Tree) chooseLeaf(n *node, r geo.Rect) *node {
	for !n.leaf {
		var best *node
		bestEnl, bestArea := 0.0, 0.0
		for _, c := range n.children {
			enl := c.rect.Union(r).Area() - c.rect.Area()
			if best == nil || enl < bestEnl || (enl == bestEnl && c.rect.Area() < bestArea) {
				best, bestEnl, bestArea = c, enl, c.rect.Area()
			}
		}
		n = best
	}
	return n
}

// entryRect abstracts over leaf data entries and internal children during
// splits.
func (n *node) entryRects() []geo.Rect {
	if n.leaf {
		rects := make([]geo.Rect, len(n.data))
		for i, d := range n.data {
			rects[i] = d.Rect
		}
		return rects
	}
	rects := make([]geo.Rect, len(n.children))
	for i, c := range n.children {
		rects[i] = c.rect
	}
	return rects
}

// splitNode performs Guttman's quadratic split on an overflowing node and
// propagates upward.
func (t *Tree) splitNode(n *node) {
	rects := n.entryRects()
	seedA, seedB := quadraticSeeds(rects)

	groupA, groupB := []int{seedA}, []int{seedB}
	rectA, rectB := rects[seedA], rects[seedB]
	remaining := make([]int, 0, len(rects))
	for i := range rects {
		if i != seedA && i != seedB {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		// Force assignment if one group must take all the rest to reach m.
		if len(groupA)+len(remaining) == t.min {
			groupA = append(groupA, remaining...)
			for _, i := range remaining {
				rectA = rectA.Union(rects[i])
			}
			break
		}
		if len(groupB)+len(remaining) == t.min {
			groupB = append(groupB, remaining...)
			for _, i := range remaining {
				rectB = rectB.Union(rects[i])
			}
			break
		}
		// Pick the entry with maximum preference for one group.
		bestIdx, bestDiff, bestPos := -1, -1.0, 0
		for pos, i := range remaining {
			dA := rectA.Union(rects[i]).Area() - rectA.Area()
			dB := rectB.Union(rects[i]).Area() - rectB.Area()
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff, bestPos = i, diff, pos
			}
		}
		i := bestIdx
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		dA := rectA.Union(rects[i]).Area() - rectA.Area()
		dB := rectB.Union(rects[i]).Area() - rectB.Area()
		if dA < dB || (dA == dB && len(groupA) < len(groupB)) {
			groupA = append(groupA, i)
			rectA = rectA.Union(rects[i])
		} else {
			groupB = append(groupB, i)
			rectB = rectB.Union(rects[i])
		}
	}

	// Materialize the two halves.
	a := &node{leaf: n.leaf, rect: rectA, parent: n.parent}
	b := &node{leaf: n.leaf, rect: rectB, parent: n.parent}
	if n.leaf {
		for _, i := range groupA {
			a.data = append(a.data, n.data[i])
		}
		for _, i := range groupB {
			b.data = append(b.data, n.data[i])
		}
		for _, d := range a.data {
			t.leafOf[d.ID] = a
		}
		for _, d := range b.data {
			t.leafOf[d.ID] = b
		}
	} else {
		for _, i := range groupA {
			c := n.children[i]
			c.parent = a
			a.children = append(a.children, c)
		}
		for _, i := range groupB {
			c := n.children[i]
			c.parent = b
			b.children = append(b.children, c)
		}
	}

	if n.parent == nil {
		// Grow a new root.
		t.root = &node{leaf: false, children: []*node{a, b}, rect: rectA.Union(rectB)}
		a.parent, b.parent = t.root, t.root
		return
	}
	p := n.parent
	for i, c := range p.children {
		if c == n {
			p.children[i] = a
			break
		}
	}
	p.children = append(p.children, b)
	if len(p.children) > t.max {
		t.splitNode(p)
	} else {
		t.adjustUp(p)
	}
}

// quadraticSeeds picks the two rects wasting the most area together.
func quadraticSeeds(rects []geo.Rect) (int, int) {
	seedA, seedB, worst := 0, 1, -1.0
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			waste := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	return seedA, seedB
}

// adjustUp refreshes MBRs from n to the root.
func (t *Tree) adjustUp(n *node) {
	for ; n != nil; n = n.parent {
		r := geo.EmptyRect
		if n.leaf {
			for _, d := range n.data {
				r = r.Union(d.Rect)
			}
		} else {
			for _, c := range n.children {
				r = r.Union(c.rect)
			}
		}
		n.rect = r
	}
}

// Delete removes the dataset with the given ID; it reports whether it was
// present. Underflowing leaves are dissolved and their remaining entries
// reinserted (condense-tree).
func (t *Tree) Delete(id int) bool {
	leaf, ok := t.leafOf[id]
	if !ok {
		return false
	}
	for i, d := range leaf.data {
		if d.ID == id {
			leaf.data = append(leaf.data[:i], leaf.data[i+1:]...)
			break
		}
	}
	delete(t.leafOf, id)

	if len(leaf.data) < t.min && leaf.parent != nil {
		orphans := append([]*dataset.Node(nil), leaf.data...)
		t.detach(leaf)
		for _, d := range orphans {
			delete(t.leafOf, d.ID)
			t.Insert(d)
		}
	} else {
		t.adjustUp(leaf)
	}
	return true
}

// detach unlinks a node from its parent, dissolving ancestors left with a
// single child.
func (t *Tree) detach(n *node) {
	p := n.parent
	for i, c := range p.children {
		if c == n {
			p.children = append(p.children[:i], p.children[i+1:]...)
			break
		}
	}
	if p.parent == nil {
		switch len(p.children) {
		case 0:
			// Every entry is gone: reset to an empty leaf root.
			t.root = &node{leaf: true}
		case 1:
			// Root with one child: hoist (keeps the tree shallow).
			t.root = p.children[0]
			t.root.parent = nil
		default:
			t.adjustUp(p)
		}
		return
	}
	if len(p.children) == 0 {
		t.detach(p)
		return
	}
	t.adjustUp(p)
}

// Update replaces the indexed version of d (same ID) with d.
func (t *Tree) Update(d *dataset.Node) {
	t.Delete(d.ID)
	t.Insert(d)
}

// SearchIntersect returns every dataset whose MBR intersects r.
func (t *Tree) SearchIntersect(r geo.Rect) []*dataset.Node {
	var out []*dataset.Node
	var walk func(n *node)
	walk = func(n *node) {
		if !n.rect.Intersects(r) {
			return
		}
		if n.leaf {
			for _, d := range n.data {
				if d.Rect.Intersects(r) {
					out = append(out, d)
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// All returns every indexed dataset node.
func (t *Tree) All() []*dataset.Node {
	var out []*dataset.Node
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			out = append(out, n.data...)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// NumNodes returns the number of R-tree nodes.
func (t *Tree) NumNodes() int {
	var count func(n *node) int
	count = func(n *node) int {
		total := 1
		for _, c := range n.children {
			total += count(c)
		}
		return total
	}
	return count(t.root)
}

// MemoryBytes estimates the resident size of the index.
func (t *Tree) MemoryBytes() int64 {
	const nodeSize = 72
	var bytes int64 = int64(t.NumNodes()) * nodeSize
	for _, d := range t.All() {
		bytes += int64(d.Cells.Len())*8 + 64
	}
	return bytes
}

// Package quadtree implements the QuadTree baseline of §VII-B [26]: a PR
// quadtree built over the individual cell IDs of all datasets (not over
// datasets), with the classical leaf capacity of 4. Overlap search locates,
// for every query cell, the leaf holding that cell and collects the IDs of
// the datasets occupying it — which is why the paper finds it behaves like
// an inverted index and is insensitive to k.
package quadtree

import (
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

// LeafCapacity is the fixed quadtree leaf capacity (§VII-C1: "the leaf node
// capacity in QuadTree is 4").
const LeafCapacity = 4

// entry is one indexed cell occurrence: dataset ds contains cell (x, y).
type entry struct {
	x, y uint32
	ds   int32
}

// node is a square region of the cell-coordinate space.
type node struct {
	x, y     uint32 // bottom-left cell coordinate of the region
	side     uint32 // region side length in cells (power of two)
	children *[4]node
	entries  []entry
}

// Tree is the PR quadtree index over all cells of all datasets.
type Tree struct {
	root  node
	size  int
	cells map[int]cellset.Set // dataset ID -> its cells, for update/delete
	names map[int]string
}

// Build indexes every cell of every dataset node. theta fixes the extent of
// the root region.
func Build(theta int, nodes []*dataset.Node) *Tree {
	t := &Tree{
		root:  node{side: 1 << uint(theta)},
		cells: make(map[int]cellset.Set),
		names: make(map[int]string),
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		t.Insert(n)
	}
	return t
}

// Insert adds every cell of the dataset node to the tree.
func (t *Tree) Insert(n *dataset.Node) {
	t.cells[n.ID] = n.Cells
	t.names[n.ID] = n.Name
	for _, c := range n.Cells {
		x, y := geo.ZDecode(c)
		t.root.insert(entry{x: x, y: y, ds: int32(n.ID)})
		t.size++
	}
}

// Delete removes every cell occurrence of the dataset.
func (t *Tree) Delete(id int) {
	cells, ok := t.cells[id]
	if !ok {
		return
	}
	for _, c := range cells {
		x, y := geo.ZDecode(c)
		if t.root.remove(x, y, int32(id)) {
			t.size--
		}
	}
	delete(t.cells, id)
	delete(t.names, id)
}

// Update replaces the dataset's cells: the paper's Fig. 22 workload. The
// quadtree "has to repeatedly find the updated cell ID for insertion and
// deletion", which is why it updates slowest.
func (t *Tree) Update(n *dataset.Node) {
	t.Delete(n.ID)
	t.Insert(n)
}

func (n *node) contains(x, y uint32) bool {
	return x >= n.x && x < n.x+n.side && y >= n.y && y < n.y+n.side
}

func (n *node) insert(e entry) {
	if n.children != nil {
		n.child(e.x, e.y).insert(e)
		return
	}
	n.entries = append(n.entries, e)
	// Split when over capacity, unless the region is a single cell (all
	// entries share coordinates and can never be separated).
	if len(n.entries) > LeafCapacity && n.side > 1 {
		n.split()
	}
}

func (n *node) split() {
	half := n.side / 2
	n.children = &[4]node{
		{x: n.x, y: n.y, side: half},
		{x: n.x + half, y: n.y, side: half},
		{x: n.x, y: n.y + half, side: half},
		{x: n.x + half, y: n.y + half, side: half},
	}
	entries := n.entries
	n.entries = nil
	for _, e := range entries {
		n.child(e.x, e.y).insert(e)
	}
}

func (n *node) child(x, y uint32) *node {
	half := n.side / 2
	i := 0
	if x >= n.x+half {
		i |= 1
	}
	if y >= n.y+half {
		i |= 2
	}
	return &n.children[i]
}

// remove deletes one entry matching (x, y, ds) and reports success. Empty
// children are not collapsed; the paper's baseline does not compact either.
func (n *node) remove(x, y uint32, ds int32) bool {
	if !n.contains(x, y) {
		return false
	}
	if n.children != nil {
		return n.child(x, y).remove(x, y, ds)
	}
	for i, e := range n.entries {
		if e.x == x && e.y == y && e.ds == ds {
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			return true
		}
	}
	return false
}

// OverlapCounts returns, for every dataset sharing at least one cell with
// the query set, the exact |S_Q ∩ S_D|, the way §VII-C describes the
// baseline: find all leaves intersecting the query's MBR and check every
// cell occurrence found there against the query set — which scans all
// points in the query's bounding region, not just the query's own cells.
func (t *Tree) OverlapCounts(q cellset.Set) map[int]int {
	counts := make(map[int]int)
	minX, minY, maxX, maxY, ok := q.Bounds()
	if !ok {
		return counts
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.x > maxX || n.y > maxY || n.x+n.side-1 < minX || n.y+n.side-1 < minY {
			return
		}
		if n.children != nil {
			for i := range n.children {
				walk(&n.children[i])
			}
			return
		}
		for _, e := range n.entries {
			if e.x < minX || e.x > maxX || e.y < minY || e.y > maxY {
				continue
			}
			if q.Contains(geo.ZEncode(e.x, e.y)) {
				counts[int(e.ds)]++
			}
		}
	}
	walk(&t.root)
	return counts
}

// Name returns the stored name of a dataset ID.
func (t *Tree) Name(id int) string { return t.names[id] }

// NumNodes returns the number of quadtree nodes.
func (t *Tree) NumNodes() int {
	var count func(n *node) int
	count = func(n *node) int {
		if n.children == nil {
			return 1
		}
		total := 1
		for i := range n.children {
			total += count(&n.children[i])
		}
		return total
	}
	return count(&t.root)
}

// MemoryBytes estimates the index's resident size: the paper's Fig. 8
// expects the quadtree to be the largest index because it stores a node
// hierarchy over N cells rather than n datasets.
func (t *Tree) MemoryBytes() int64 {
	const nodeSize = 48
	return int64(t.NumNodes())*nodeSize + int64(t.size)*12
}

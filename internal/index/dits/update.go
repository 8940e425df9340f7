package dits

import (
	"fmt"

	"dits/internal/dataset"
)

// The update operations of Appendix C. The bidirectional parent pointers
// let every operation touch only one root-to-leaf path: descend to the
// right leaf, mutate it, then refresh ancestor geometry bottom-up.

// Insert adds a new dataset node to the index. It descends the tree toward
// the child whose pivot is nearest the new node's pivot, inserts at the
// reached leaf, splits the leaf with Algorithm 1 if it overflows f, and
// refreshes ancestors. It returns an error if the ID is already indexed.
func (l *Local) Insert(nd *dataset.Node) error {
	if nd == nil {
		return fmt.Errorf("dits: insert nil dataset node")
	}
	if _, dup := l.byID[nd.ID]; dup {
		return fmt.Errorf("dits: dataset %d already indexed", nd.ID)
	}
	nd.EnsureCompact()
	leaf := l.descend(nd)
	leaf.EnsureLoaded()
	leaf.Children = append(leaf.Children, nd)
	l.byID[nd.ID] = nd
	l.leafOf[nd.ID] = leaf

	if len(leaf.Children) > l.F {
		l.splitLeaf(leaf)
	} else {
		leaf.refreshSummaries()
		leaf.Rect = leaf.Rect.Union(nd.Rect)
		leaf.O = leaf.Rect.Center()
		leaf.R = leaf.Rect.Radius()
		if cov := nd.Coverage(); cov > leaf.MaxCells {
			leaf.MaxCells = cov
		}
		l.refreshAncestors(leaf.Parent)
	}
	return nil
}

// descend walks from the root to the leaf whose pivot is closest to nd's
// pivot at every level (Appendix C: "find the node with the minimum
// distance ||N.o, N_D.o|| in each layer").
func (l *Local) descend(nd *dataset.Node) *TreeNode {
	n := l.Root
	for !n.IsLeaf() {
		if nd.O.Dist2(n.Left.O) <= nd.O.Dist2(n.Right.O) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// splitLeaf converts an overflowing leaf into an internal node whose two
// children are rebuilt with Algorithm 1's split.
func (l *Local) splitLeaf(leaf *TreeNode) {
	sub := l.build(leaf.Children, leaf.Parent)
	// Graft sub's structure onto the existing leaf node so the parent's
	// child pointer stays valid.
	leaf.Left, leaf.Right = sub.Left, sub.Right
	leaf.Children = sub.Children
	leaf.unionC, leaf.ownBytes = sub.unionC, sub.ownBytes
	leaf.Rect, leaf.O, leaf.R = sub.Rect, sub.O, sub.R
	leaf.MaxCells = sub.MaxCells
	// The node is internal now (or a freshly rebuilt leaf when the split
	// degenerates, which carries the rebuilt postings); any file-backed
	// payload state died with the old leaf.
	leaf.lazy, leaf.post = nil, sub.post
	if leaf.Left != nil {
		leaf.Left.Parent = leaf
		leaf.Right.Parent = leaf
	}
	// Re-point leafOf at the grafted leaves.
	leaf.visitLeaves(func(lf *TreeNode) {
		for _, c := range lf.Children {
			l.leafOf[c.ID] = lf
		}
	})
	l.refreshAncestors(leaf.Parent)
}

// Delete removes the dataset with the given ID. When a leaf empties and has
// a sibling, the sibling is hoisted into the parent so the tree never keeps
// dead branches. It returns an error when the ID is unknown.
func (l *Local) Delete(id int) error {
	leaf, ok := l.leafOf[id]
	if !ok {
		return fmt.Errorf("dits: dataset %d not indexed", id)
	}
	leaf.EnsureLoaded()
	for i, c := range leaf.Children {
		if c.ID == id {
			// Swap-remove: move the last child into the freed slot.
			// refreshGeometry below rebuilds the postings.
			last := len(leaf.Children) - 1
			leaf.Children[i] = leaf.Children[last]
			leaf.Children = leaf.Children[:last]
			break
		}
	}
	delete(l.byID, id)
	delete(l.leafOf, id)

	if len(leaf.Children) == 0 && leaf.Parent != nil {
		l.hoistSibling(leaf)
		return nil
	}
	leaf.refreshGeometry()
	l.refreshAncestors(leaf.Parent)
	return nil
}

// hoistSibling removes an empty leaf by replacing its parent with the
// sibling subtree.
func (l *Local) hoistSibling(empty *TreeNode) {
	parent := empty.Parent
	sibling := parent.Left
	if sibling == empty {
		sibling = parent.Right
	}
	// Copy the sibling's content into the parent slot. MaxCells and the
	// file-backed payload state must move too: when the sibling is a leaf
	// the parent slot BECOMES that leaf, and an internal node's stale
	// MaxCells (often 0) would make searches prune the hoisted leaf as if
	// it held no cells.
	parent.Left, parent.Right = sibling.Left, sibling.Right
	parent.Children = sibling.Children
	parent.unionC, parent.ownBytes = sibling.unionC, sibling.ownBytes
	parent.Rect, parent.O, parent.R = sibling.Rect, sibling.O, sibling.R
	parent.MaxCells = sibling.MaxCells
	parent.lazy, parent.post = sibling.lazy, sibling.post
	if parent.Left != nil {
		parent.Left.Parent = parent
		parent.Right.Parent = parent
	}
	if parent.IsLeaf() {
		for _, c := range parent.Children {
			l.leafOf[c.ID] = parent
		}
	}
	l.refreshAncestors(parent.Parent)
}

// Update replaces the indexed dataset node carrying nd.ID with nd in place
// (Appendix C): the leaf's inverted index is rebuilt and ancestor geometry
// refreshed bottom-up. It returns an error when the ID is unknown.
func (l *Local) Update(nd *dataset.Node) error {
	if nd == nil {
		return fmt.Errorf("dits: update nil dataset node")
	}
	leaf, ok := l.leafOf[nd.ID]
	if !ok {
		return fmt.Errorf("dits: dataset %d not indexed", nd.ID)
	}
	nd.EnsureCompact()
	leaf.EnsureLoaded()
	for i, c := range leaf.Children {
		if c.ID == nd.ID {
			leaf.Children[i] = nd
			break
		}
	}
	l.byID[nd.ID] = nd
	leaf.refreshGeometry()
	l.refreshAncestors(leaf.Parent)
	return nil
}

// refreshAncestors recomputes geometry from n up to the root.
func (l *Local) refreshAncestors(n *TreeNode) {
	for ; n != nil; n = n.Parent {
		n.refreshGeometry()
	}
}

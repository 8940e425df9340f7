package dits

import (
	"fmt"

	"dits/internal/dataset"
	"dits/internal/geo"
)

// BuildBottomUp constructs a DITS-L index with the classical agglomerative
// ball-tree strategy §V-A contrasts against: repeatedly merge the two
// clusters whose combined MBR has the smallest area, until one root
// remains, then split results into a binary tree. The paper cites O(n³)
// for this approach [38] and picks the O(n log n) top-down median split
// instead; this builder exists so the construction-strategy ablation can
// measure that trade-off, and it produces an index answering exactly like
// Build's.
//
// BuildBottomUpMaxDatasets bounds the input size, since the construction
// is cubic.
const BuildBottomUpMaxDatasets = 4000

// BuildBottomUp builds the index; it panics when more than
// BuildBottomUpMaxDatasets datasets are given (the caller chose the wrong
// builder, not a runtime condition).
func BuildBottomUp(g geo.Grid, nodes []*dataset.Node, f int) *Local {
	l := &Local{
		Grid:   g,
		F:      leafCapacity(f),
		byID:   make(map[int]*dataset.Node),
		leafOf: make(map[int]*TreeNode),
	}
	var ds []*dataset.Node
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
	if len(ds) > BuildBottomUpMaxDatasets {
		panic(fmt.Sprintf("dits: BuildBottomUp limited to %d datasets, got %d",
			BuildBottomUpMaxDatasets, len(ds)))
	}

	// Start with one cluster per dataset; leaves materialize when a
	// cluster's population reaches f during merging.
	type cluster struct {
		rect geo.Rect
		node *TreeNode // nil until materialized as a subtree
		data []*dataset.Node
	}
	clusters := make([]*cluster, 0, len(ds))
	for _, n := range ds {
		clusters = append(clusters, &cluster{rect: n.Rect, data: []*dataset.Node{n}})
	}
	if len(clusters) == 0 {
		l.Root = l.build(nil, nil)
		return l
	}

	materialize := func(c *cluster) *TreeNode {
		if c.node != nil {
			return c.node
		}
		leaf := &TreeNode{Children: append([]*dataset.Node(nil), c.data...)}
		leaf.refreshGeometry()
		for _, d := range c.data {
			l.leafOf[d.ID] = leaf
		}
		c.node = leaf
		return leaf
	}

	for len(clusters) > 1 {
		// Find the pair whose union MBR area is smallest.
		bi, bj, bestArea := 0, 1, 0.0
		first := true
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				area := clusters[i].rect.Union(clusters[j].rect).Area()
				if first || area < bestArea {
					first, bi, bj, bestArea = false, i, j, area
				}
			}
		}
		a, b := clusters[bi], clusters[bj]
		mergedRect := a.rect.Union(b.rect)
		merged := &cluster{rect: mergedRect}
		if a.node == nil && b.node == nil && len(a.data)+len(b.data) <= l.F {
			// Still fits a single leaf: keep accumulating datasets.
			merged.data = append(append([]*dataset.Node(nil), a.data...), b.data...)
		} else {
			parent := &TreeNode{Left: materialize(a), Right: materialize(b)}
			parent.Left.Parent = parent
			parent.Right.Parent = parent
			parent.refreshGeometry()
			merged.node = parent
		}
		// Remove j first (j > i) then replace i.
		clusters = append(clusters[:bj], clusters[bj+1:]...)
		clusters[bi] = merged
	}
	l.Root = materialize(clusters[0])
	l.Root.Parent = nil
	return l
}

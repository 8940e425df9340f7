// Package dataset models the data of the paper: spatial datasets
// (Definition 2), the dataset nodes that wrap them with MBR/pivot/radius
// metadata (Definition 12), and spatial data sources (Definition 3).
package dataset

import (
	"fmt"

	"dits/internal/cellset"
	"dits/internal/geo"
)

// Dataset is a named collection of spatial points (Definition 2).
type Dataset struct {
	ID     int         // identifier, unique within a source
	Name   string      // human-readable name (e.g. a file or route name)
	Points []geo.Point // the raw spatial points
}

// Size returns |D|, the number of points.
func (d *Dataset) Size() int { return len(d.Points) }

// MBR returns the minimum bounding rectangle of the dataset's points.
func (d *Dataset) MBR() geo.Rect { return geo.BoundingRect(d.Points) }

// String implements fmt.Stringer.
func (d *Dataset) String() string {
	return fmt.Sprintf("Dataset{id=%d, name=%q, |D|=%d}", d.ID, d.Name, len(d.Points))
}

// Node is a dataset node (Definition 12): the per-dataset record stored in
// the indexes. Rect is the MBR in grid-coordinate space, O the pivot
// (center of Rect), R half the diagonal of Rect, and Cells the cell-based
// dataset. Keeping everything in grid coordinates makes MBR pruning,
// connectivity bounds (Lemma 4), and cell distances directly comparable.
type Node struct {
	ID    int         // dataset identifier
	Name  string      // dataset name carried through for results
	Rect  geo.Rect    // MBR over the cell grid coordinates
	O     geo.Point   // pivot: center of Rect
	R     float64     // radius: half of Rect's diagonal
	Cells cellset.Set // the cell-based dataset S_D

	// Compact is the container representation of Cells, the form the
	// overlap/coverage hot paths operate on. NewNode, NewNodeFromCells,
	// and Merge populate it; hand-built nodes may leave it nil and
	// searchers fall back through CompactCells.
	Compact *cellset.Compact
}

// NewNode builds the dataset node of d under grid g. It returns nil for a
// dataset with no points: an empty dataset occupies no cells and can never
// join anything. The MBR comes from the grid coordinates of the points as
// they are gridded, so no cell is decoded again.
func NewNode(g geo.Grid, d *Dataset) *Node {
	if len(d.Points) == 0 {
		return nil
	}
	ids := make([]uint64, len(d.Points))
	minX, minY, maxX, maxY := ^uint32(0), ^uint32(0), uint32(0), uint32(0)
	for i, p := range d.Points {
		x, y := g.CellCoords(p)
		ids[i] = geo.ZEncode(x, y)
		minX, minY, maxX, maxY = min(minX, x), min(minY, y), max(maxX, x), max(maxY, y)
	}
	return newNode(d.ID, d.Name, cellset.Normalize(ids), minX, minY, maxX, maxY)
}

// NewNodeFromCells builds a dataset node directly from a cell-based
// dataset. It returns nil when cells is empty.
func NewNodeFromCells(id int, name string, cells cellset.Set) *Node {
	minX, minY, maxX, maxY, ok := cells.Bounds()
	if !ok {
		return nil
	}
	return newNode(id, name, cells, minX, minY, maxX, maxY)
}

// newNode builds the node of cells, whose grid-coordinate MBR is
// [minX,maxX]×[minY,maxY].
func newNode(id int, name string, cells cellset.Set, minX, minY, maxX, maxY uint32) *Node {
	r := geo.Rect{
		MinX: float64(minX), MinY: float64(minY),
		MaxX: float64(maxX), MaxY: float64(maxY),
	}
	return &Node{
		ID:      id,
		Name:    name,
		Rect:    r,
		O:       r.Center(),
		R:       r.Radius(),
		Cells:   cells,
		Compact: cellset.FromSet(cells),
	}
}

// CompactCells returns the node's container representation, deriving it
// from Cells when the node was built by hand. It never mutates the node,
// so concurrent read-only searches stay safe.
func (n *Node) CompactCells() *cellset.Compact {
	if n.Compact != nil {
		return n.Compact
	}
	return cellset.FromSet(n.Cells)
}

// EnsureCompact caches the container representation on the node and
// returns it. Callers must hold exclusive access to the node (index build
// and update paths do); searchers use CompactCells instead.
func (n *Node) EnsureCompact() *cellset.Compact {
	if n.Compact == nil {
		n.Compact = cellset.FromSet(n.Cells)
	}
	return n.Compact
}

// FlatCells returns the node's cells as a flat sorted Set. Nodes loaded
// from an mmap'd snapshot (and nodes produced by Merge) carry only the
// container form; FlatCells materializes a flat copy for callers that
// need one — e.g. wire responses — without mutating the node, so it is
// safe under concurrent read-only searches.
func (n *Node) FlatCells() cellset.Set {
	if n.Cells != nil {
		return n.Cells
	}
	return n.Compact.Set()
}

// Coverage returns |S_D|, the number of cells covered by the node.
func (n *Node) Coverage() int {
	if n.Compact != nil {
		return n.Compact.Len()
	}
	return n.Cells.Len()
}

// DistBounds returns the Lemma 4 lower and upper bounds on the cell-based
// dataset distance between n and q:
//
//	lb = max(‖o_n − o_q‖ − r_n − r_q, 0)    ub = ‖o_n − o_q‖ + r_n + r_q
func (n *Node) DistBounds(q *Node) (lb, ub float64) {
	c := n.O.Dist(q.O)
	lb = c - n.R - q.R
	if lb < 0 {
		lb = 0
	}
	return lb, c + n.R + q.R
}

// Merge returns a new node covering n and m: union of cells, combined MBR,
// recomputed pivot and radius. It implements the spatial merge strategy of
// CoverageSearch (Algorithm 3, line 11). The merged node keeps n's ID and
// an empty name; it never enters an index, and it carries the cell union
// in container form only (Cells stays nil): the greedy loops that consume
// merged nodes read geometry and CompactCells, so materializing a flat
// copy every round would be pure allocation waste.
func (n *Node) Merge(m *Node) *Node {
	if m == nil {
		return n
	}
	if n == nil {
		return m
	}
	r := n.Rect.Union(m.Rect)
	return &Node{
		ID:      n.ID,
		Rect:    r,
		O:       r.Center(),
		R:       r.Radius(),
		Compact: n.CompactCells().Union(m.CompactCells()),
	}
}

// String implements fmt.Stringer.
func (n *Node) String() string {
	return fmt.Sprintf("Node{id=%d, |S|=%d, rect=%v}", n.ID, n.Coverage(), n.Rect)
}

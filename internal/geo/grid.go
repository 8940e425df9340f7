package geo

import (
	"fmt"
	"math"
)

// Grid is the uniform partition of a 2-dimensional space into 2^θ × 2^θ
// cells (Definition 4). Origin is the bottom-left point (x0, y0) of the
// space and CellW/CellH the width ν and height µ of each cell.
type Grid struct {
	Theta  int     // resolution θ; the grid has 2^θ cells per axis
	Origin Point   // bottom-left corner of the indexed space
	CellW  float64 // ν: cell width
	CellH  float64 // µ: cell height
}

// NewGrid partitions the space covered by bounds into a 2^θ × 2^θ grid.
// Degenerate bounds (zero width or height) are widened so every point still
// maps to a valid cell. It panics if theta is outside [1, MaxTheta]; the
// resolution is a static configuration value, so a bad one is a programming
// error rather than a runtime condition.
func NewGrid(theta int, bounds Rect) Grid {
	if theta < 1 || theta > MaxTheta {
		panic(fmt.Sprintf("geo: resolution θ=%d outside [1, %d]", theta, MaxTheta))
	}
	if bounds.IsEmpty() {
		bounds = Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	w, h := bounds.Width(), bounds.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	side := float64(uint64(1) << uint(theta))
	return Grid{
		Theta:  theta,
		Origin: Point{X: bounds.MinX, Y: bounds.MinY},
		CellW:  w / side,
		CellH:  h / side,
	}
}

// Side returns the number of cells per axis, 2^θ.
func (g Grid) Side() uint32 { return uint32(1) << uint(g.Theta) }

// clampCoord converts one coordinate to a cell index, clamping points on or
// beyond the far edge of the space into the last cell.
func clampCoord(v, origin, cell float64, side uint32) uint32 {
	if cell <= 0 {
		return 0
	}
	i := int64(math.Floor((v - origin) / cell))
	if i < 0 {
		i = 0
	}
	if i >= int64(side) {
		i = int64(side) - 1
	}
	return uint32(i)
}

// CellCoords returns the grid coordinates (X, Y) of the cell containing p,
// the ((x−x0)/ν, (y−y0)/µ) mapping of Definition 5.
func (g Grid) CellCoords(p Point) (x, y uint32) {
	return clampCoord(p.X, g.Origin.X, g.CellW, g.Side()),
		clampCoord(p.Y, g.Origin.Y, g.CellH, g.Side())
}

// CellID returns the z-order cell ID of the cell containing p.
func (g Grid) CellID(p Point) uint64 {
	x, y := g.CellCoords(p)
	return ZEncode(x, y)
}

// CellCenter returns the center point of cell ID c.
func (g Grid) CellCenter(c uint64) Point {
	x, y := ZDecode(c)
	return Point{
		X: g.Origin.X + (float64(x)+0.5)*g.CellW,
		Y: g.Origin.Y + (float64(y)+0.5)*g.CellH,
	}
}

// RectCoords returns the inclusive cell-coordinate span [x0,x1]×[y0,y1]
// covered by r, clamped to the grid.
func (g Grid) RectCoords(r Rect) (x0, y0, x1, y1 uint32) {
	x0, y0 = g.CellCoords(Point{X: r.MinX, Y: r.MinY})
	x1, y1 = g.CellCoords(Point{X: r.MaxX, Y: r.MaxY})
	return x0, y0, x1, y1
}

// String implements fmt.Stringer.
func (g Grid) String() string {
	return fmt.Sprintf("Grid{θ=%d, origin=%s, cell=%.6fx%.6f}", g.Theta, g.Origin, g.CellW, g.CellH)
}

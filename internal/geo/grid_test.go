package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func testGrid() Grid {
	return NewGrid(2, Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4})
}

func TestGridCellID(t *testing.T) {
	g := testGrid()
	cases := []struct {
		p    Point
		want uint64
	}{
		{Pt(0.5, 0.5), 0},
		{Pt(1.5, 0.5), 1},
		{Pt(0.5, 1.5), 2},
		{Pt(3.5, 3.5), 15},
		{Pt(0, 0), 0},
		// Points on the far boundary clamp into the last cell.
		{Pt(4, 4), 15},
		// Points outside the space clamp to the nearest edge cell.
		{Pt(-1, -1), 0},
		{Pt(9, 0.5), ZEncode(3, 0)},
	}
	for _, c := range cases {
		if got := g.CellID(c.p); got != c.want {
			t.Errorf("CellID(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

// cellRect returns the spatial rectangle covered by cell ID c: the
// reference CellID is checked against.
func cellRect(g Grid, c uint64) Rect {
	x, y := ZDecode(c)
	minX := g.Origin.X + float64(x)*g.CellW
	minY := g.Origin.Y + float64(y)*g.CellH
	return Rect{MinX: minX, MinY: minY, MaxX: minX + g.CellW, MaxY: minY + g.CellH}
}

func TestGridGeometry(t *testing.T) {
	g := testGrid()
	if g.Side() != 4 {
		t.Fatalf("Side = %d, want 4", g.Side())
	}
	r := cellRect(g, 9) // cell (1,2)
	want := Rect{MinX: 1, MinY: 2, MaxX: 2, MaxY: 3}
	if r != want {
		t.Errorf("cellRect(9) = %v, want %v", r, want)
	}
	if c := g.CellCenter(9); c != Pt(1.5, 2.5) {
		t.Errorf("CellCenter(9) = %v, want (1.5,2.5)", c)
	}
}

func TestGridRectCoords(t *testing.T) {
	g := testGrid()
	x0, y0, x1, y1 := g.RectCoords(Rect{MinX: 0.5, MinY: 1.2, MaxX: 2.9, MaxY: 3.7})
	if x0 != 0 || y0 != 1 || x1 != 2 || y1 != 3 {
		t.Errorf("RectCoords = (%d,%d,%d,%d), want (0,1,2,3)", x0, y0, x1, y1)
	}
}

func TestGridDegenerateBounds(t *testing.T) {
	// A single-point space must still produce a usable grid.
	g := NewGrid(3, Rect{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5})
	if g.CellW <= 0 || g.CellH <= 0 {
		t.Fatalf("degenerate grid has non-positive cells: %v", g)
	}
	if id := g.CellID(Pt(5, 5)); id != 0 {
		t.Errorf("CellID at origin of degenerate grid = %d, want 0", id)
	}
	g2 := NewGrid(3, EmptyRect)
	if g2.CellW <= 0 || g2.CellH <= 0 {
		t.Fatalf("empty-bounds grid has non-positive cells: %v", g2)
	}
}

func TestGridPanicsOnBadTheta(t *testing.T) {
	for _, theta := range []int{0, -1, MaxTheta + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(θ=%d) should panic", theta)
				}
			}()
			NewGrid(theta, Rect{MaxX: 1, MaxY: 1})
		}()
	}
}

func TestGridPointInCellProperty(t *testing.T) {
	g := NewGrid(10, Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90})
	f := func(px, py float64) bool {
		p := Pt(math.Mod(norm(px), 180), math.Mod(norm(py), 90))
		id := g.CellID(p)
		r := cellRect(g, id)
		// Allow boundary epsilon: a point is in (or on the edge of) its cell.
		const eps = 1e-9
		return p.X >= r.MinX-eps && p.X <= r.MaxX+eps && p.Y >= r.MinY-eps && p.Y <= r.MaxY+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package geo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Rect is an axis-aligned rectangle, used as the minimum bounding rectangle
// (MBR) of datasets and index nodes. A Rect is valid when MinX <= MaxX and
// MinY <= MaxY; the zero Rect is the degenerate rectangle at the origin.
type Rect struct {
	MinX, MinY float64
	MaxX, MaxY float64
}

// EmptyRect is the identity element for Union: it contains nothing and
// Union(EmptyRect, r) == r.
var EmptyRect = Rect{
	MinX: math.Inf(1), MinY: math.Inf(1),
	MaxX: math.Inf(-1), MaxY: math.Inf(-1),
}

// BoundingRect returns the MBR of the given points. It returns EmptyRect
// when pts is empty.
func BoundingRect(pts []Point) Rect {
	r := EmptyRect
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// ParseRect parses a -bounds flag, "minX,minY,maxX,maxY". Components must
// be finite and the rectangle not inverted: NewGrid would silently swap
// such bounds for the unit square, making cell IDs incomparable.
func ParseRect(s string) (Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return Rect{}, fmt.Errorf("bounds must be minX,minY,maxX,maxY, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return Rect{}, fmt.Errorf("bad bounds component %q: %w", p, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Rect{}, fmt.Errorf("bounds component %q is not finite", p)
		}
		v[i] = f
	}
	r := Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}
	if r.IsEmpty() {
		return Rect{}, fmt.Errorf("bounds %q are empty (a min exceeds its max)", s)
	}
	return r, nil
}

// IsEmpty reports whether r contains no points (as EmptyRect does).
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r, 0 for an empty rectangle.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the pivot of r: the average of its bottom-left and
// top-right corners (Definition 12).
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Radius returns half the diagonal length of r, the ball radius used by
// dataset and index nodes (Definition 12).
func (r Rect) Radius() float64 {
	if r.IsEmpty() {
		return 0
	}
	return math.Hypot(r.Width(), r.Height()) / 2
}

// ContainsRect reports whether s lies entirely inside r. An empty s is
// contained in every rectangle.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point (boundary
// touching counts as intersection, matching the MBR-overlap pruning rule
// N.rect ∩ N_Q.rect ≠ ∅ of Algorithm 2).
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// ExtendPoint returns the smallest rectangle containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	if r.IsEmpty() {
		return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
	}
	return Rect{
		MinX: math.Min(r.MinX, p.X), MinY: math.Min(r.MinY, p.Y),
		MaxX: math.Max(r.MaxX, p.X), MaxY: math.Max(r.MaxY, p.Y),
	}
}

// Expand returns r grown by d on every side. Expanding by a negative d
// shrinks the rectangle and may produce an empty one.
func (r Rect) Expand(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// MinDist2 returns the square of the minimum Euclidean distance between
// any point of r and any point of s, 0 when they intersect and +Inf when
// either is empty. It takes no square root: between rectangles with
// integer coordinates it is exact, where
// math.Hypot is off by an ulp on many Pythagorean pairs, so a threshold
// test against a squared radius never disagrees with a point-by-point one.
func (r Rect) MinDist2(s Rect) float64 {
	if r.IsEmpty() || s.IsEmpty() {
		return math.Inf(1)
	}
	dx, dy := r.gap(s)
	return dx*dx + dy*dy
}

// gap returns the per-axis separation of two non-empty rectangles, 0 on an
// axis where their extents overlap.
func (r Rect) gap(s Rect) (dx, dy float64) {
	dx = math.Max(0, math.Max(s.MinX-r.MaxX, r.MinX-s.MaxX))
	dy = math.Max(0, math.Max(s.MinY-r.MaxY, r.MinY-s.MaxY))
	return dx, dy
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.4f,%.4f]x[%.4f,%.4f]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

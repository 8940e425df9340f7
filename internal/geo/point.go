// Package geo provides the planar geometry primitives used throughout the
// DITS library: points, axis-aligned rectangles, the uniform grid partition
// of Definition 4, and the z-order (Morton) encoding that turns grid cells
// into integer cell IDs.
package geo

import (
	"fmt"
	"math"
)

// Point is a 2-dimensional spatial point (Definition 1). X is the
// longitude-like coordinate and Y the latitude-like coordinate, but the
// library is agnostic to the actual units.
type Point struct {
	X float64
	Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths such as pruning comparisons.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6f, %.6f)", p.X, p.Y) }

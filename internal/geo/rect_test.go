package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// newRect returns the rectangle spanning the two corner points in any
// order.
func newRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X), MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X), MaxY: math.Max(a.Y, b.Y),
	}
}

func TestRectBasics(t *testing.T) {
	r := newRect(Pt(2, 5), Pt(0, 1))
	if r.MinX != 0 || r.MaxX != 2 || r.MinY != 1 || r.MaxY != 5 {
		t.Fatalf("newRect normalized wrong: %v", r)
	}
	if got := r.Width(); got != 2 {
		t.Errorf("Width = %v, want 2", got)
	}
	if got := r.Height(); got != 4 {
		t.Errorf("Height = %v, want 4", got)
	}
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %v, want 8", got)
	}
	if got := r.Center(); got != Pt(1, 3) {
		t.Errorf("Center = %v, want (1,3)", got)
	}
	if got, want := r.Radius(), math.Hypot(2, 4)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("Radius = %v, want %v", got, want)
	}
}

func TestRectEmpty(t *testing.T) {
	if !EmptyRect.IsEmpty() {
		t.Error("EmptyRect should be empty")
	}
	if EmptyRect.Area() != 0 {
		t.Error("empty rect area should be 0")
	}
	if EmptyRect.Intersects(Rect{MaxX: 1, MaxY: 1}) {
		t.Error("empty rect should intersect nothing")
	}
	r := Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}
	if got := EmptyRect.Union(r); got != r {
		t.Errorf("EmptyRect.Union = %v, want %v", got, r)
	}
	if got := r.Union(EmptyRect); got != r {
		t.Errorf("Union(empty) = %v, want %v", got, r)
	}
	if BoundingRect(nil) != EmptyRect {
		t.Error("BoundingRect(nil) should be EmptyRect")
	}
}

func TestRectIntersection(t *testing.T) {
	a := Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
	cases := []struct {
		name string
		b    Rect
		want bool
	}{
		{"overlap", Rect{MinX: 2, MinY: 2, MaxX: 6, MaxY: 6}, true},
		{"contained", Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, true},
		{"touching-edge", Rect{MinX: 4, MinY: 0, MaxX: 8, MaxY: 4}, true},
		{"disjoint", Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, false},
		{"disjoint-x-only", Rect{MinX: 5, MinY: 0, MaxX: 6, MaxY: 4}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if a.Intersects(c.b) != c.want || c.b.Intersects(a) != c.want {
				t.Errorf("Intersects = %v, %v; want %v both ways", a.Intersects(c.b), c.b.Intersects(a), c.want)
			}
		})
	}
}

func TestRectMinDist(t *testing.T) {
	a := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	cases := []struct {
		b    Rect
		want float64
	}{
		{Rect{MinX: 2, MinY: 0, MaxX: 3, MaxY: 1}, 1},                    // right
		{Rect{MinX: 0, MinY: 3, MaxX: 1, MaxY: 4}, 2},                    // above
		{Rect{MinX: 4, MinY: 5, MaxX: 6, MaxY: 7}, math.Hypot(3, 4)},     // diagonal
		{Rect{MinX: 0.5, MinY: 0.5, MaxX: 2, MaxY: 2}, 0},                // overlap
		{Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, 0},                    // corner touch
		{Rect{MinX: -3, MinY: -4, MaxX: -2, MaxY: -3}, math.Hypot(2, 3)}, // below-left
	}
	for _, c := range cases {
		if got := a.MinDist2(c.b); math.Abs(got-c.want*c.want) > 1e-12 {
			t.Errorf("MinDist2(%v) = %v, want %v", c.b, got, c.want*c.want)
		}
	}
	// 21-220-221 is one of the triples math.Hypot misses by an ulp.
	far := Rect{MinX: 22, MinY: 221, MaxX: 30, MaxY: 230}
	if got := a.MinDist2(far); got != 221*221 {
		t.Errorf("MinDist2 = %v, want exactly %v", got, 221*221)
	}
	if got := a.MinDist2(EmptyRect); !math.IsInf(got, 1) {
		t.Errorf("MinDist2 to the empty rect = %v, want +Inf", got)
	}
}

func TestRectUnionContainsProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		a := newRect(Pt(norm(ax), norm(ay)), Pt(norm(bx), norm(by)))
		b := newRect(Pt(norm(cx), norm(cy)), Pt(norm(dx), norm(dy)))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectIntersectionSymmetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		a := newRect(Pt(norm(ax), norm(ay)), Pt(norm(bx), norm(by)))
		b := newRect(Pt(norm(cx), norm(cy)), Pt(norm(dx), norm(dy)))
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// norm maps arbitrary float64s (possibly NaN/Inf from quick) into a sane
// bounded range so rectangle invariants are meaningful.
func norm(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{Pt(3, -1), Pt(0, 4), Pt(-2, 2)}
	got := BoundingRect(pts)
	want := Rect{MinX: -2, MinY: -1, MaxX: 3, MaxY: 4}
	if got != want {
		t.Errorf("BoundingRect = %v, want %v", got, want)
	}
	for _, p := range pts {
		if !got.ContainsRect(Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}) {
			t.Errorf("BoundingRect should contain %v", p)
		}
	}
}

func TestParseRect(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Rect
		ok   bool
	}{
		{"-180, -90,180,90", Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}, true},
		{"0,0,1", Rect{}, false},
		{"0,0,1,1,2", Rect{}, false},
		{"", Rect{}, false},
		{"0,0,one,1", Rect{}, false},
		{"0,NaN,1,1", Rect{}, false},
		{"0,0,+Inf,1", Rect{}, false},
		{"-Inf,0,1,1", Rect{}, false},
		{"0,0,1e400,1", Rect{}, false},
		{"1,0,0,1", Rect{}, false},
		{"0,1,1,0", Rect{}, false},
	} {
		got, err := ParseRect(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseRect(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZEncodeKnownValues(t *testing.T) {
	// The 4x4 grid of Fig. 2(a) in the paper: IDs laid out as
	//   10 11 14 15
	//    8  9 12 13
	//    2  3  6  7
	//    0  1  4  5
	cases := []struct {
		x, y uint32
		want uint64
	}{
		{0, 0, 0}, {1, 0, 1}, {0, 1, 2}, {1, 1, 3},
		{2, 0, 4}, {3, 0, 5}, {2, 1, 6}, {3, 1, 7},
		{0, 2, 8}, {1, 2, 9}, {0, 3, 10}, {1, 3, 11},
		{2, 2, 12}, {3, 2, 13}, {2, 3, 14}, {3, 3, 15},
	}
	for _, c := range cases {
		if got := ZEncode(c.x, c.y); got != c.want {
			t.Errorf("ZEncode(%d,%d) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestZRoundTripProperty(t *testing.T) {
	f := func(x, y uint32) bool {
		x &= (1 << MaxTheta) - 1
		y &= (1 << MaxTheta) - 1
		gx, gy := ZDecode(ZEncode(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZEncodeMonotoneInQuadrant(t *testing.T) {
	// Within a quadrant at any level, all IDs of the lower quadrant are
	// smaller than all IDs of a higher quadrant — the defining property of
	// the z-order curve used to keep IDs consecutive per block.
	f := func(x, y uint32) bool {
		x &= (1 << 20) - 1
		y &= (1 << 20) - 1
		id := ZEncode(x, y)
		// The cell one full quadrant to the upper-right always has a
		// larger ID.
		return ZEncode(x|1<<20, y|1<<20) > id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// cellDist returns the Euclidean distance between the grid coordinates of
// two cell IDs, the ||c_i, c_j||_2 term of the cell-based dataset distance
// (Definition 6): the reference CellDist2 is checked against.
func cellDist(a, b uint64) float64 {
	ax, ay := ZDecode(a)
	bx, by := ZDecode(b)
	dx := float64(int64(ax) - int64(bx))
	dy := float64(int64(ay) - int64(by))
	return math.Sqrt(dx*dx + dy*dy)
}

func TestCellDist(t *testing.T) {
	// Example 3 of the paper: dist(S_D1,S_D2)=1, dist(S_D1,S_D3)=1,
	// dist(S_D2,S_D3)=sqrt(2) on the 4x4 grid with
	// S_D1={9,11}, S_D2={1,3}, S_D3={12,13}.
	if d := cellDist(9, 3); d != 1 {
		t.Errorf("cellDist(9,3) = %v, want 1", d)
	}
	if d := cellDist(9, 12); d != 1 {
		t.Errorf("cellDist(9,12) = %v, want 1", d)
	}
	if d := cellDist(3, 12); math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Errorf("cellDist(3,12) = %v, want sqrt(2)", d)
	}
	if d := cellDist(7, 7); d != 0 {
		t.Errorf("cellDist(7,7) = %v, want 0", d)
	}
}

func TestCellDist2MatchesCellDist(t *testing.T) {
	f := func(a, b uint64) bool {
		a &= (1 << 56) - 1
		b &= (1 << 56) - 1
		d := cellDist(a, b)
		return math.Abs(d*d-CellDist2(a, b)) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkZEncode(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += ZEncode(uint32(i), uint32(i)*2654435761)
	}
	_ = sink
}

func BenchmarkZDecode(b *testing.B) {
	var sink uint32
	for i := 0; i < b.N; i++ {
		x, y := ZDecode(uint64(i) * 0x9e3779b97f4a7c15 & ((1 << 56) - 1))
		sink += x + y
	}
	_ = sink
}

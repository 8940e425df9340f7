package cellset

import (
	"math"
	"math/rand"
	"testing"

	"dits/internal/geo"
)

func TestDistIndexMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		q := randomGridSet(rng, 1+rng.Intn(50))
		s := randomGridSet(rng, 1+rng.Intn(50))
		for _, delta := range []float64{0, 1, 2.5, 7, 15, 40} {
			ix := NewDistIndex(q, delta)
			want := DistNaive(q, s) <= delta
			if got := ix.Connected(s); got != want {
				t.Fatalf("trial %d δ=%v: Connected=%v, naive=%v\nq=%v\ns=%v",
					trial, delta, got, want, q, s)
			}
		}
	}
	// Route-shaped sets over a 4096² grid: far blocks and far super-blocks
	// to jump over on both sides.
	q, cands := sparseDistFixture()
	for _, delta := range []float64{3, 10, 100} {
		ix := NewDistIndex(q, delta)
		for i, s := range cands[:16] {
			if got, want := ix.Connected(s), DistNaive(q, s) <= delta; got != want {
				t.Fatalf("sparse candidate %d δ=%v: Connected=%v, naive=%v", i, delta, got, want)
			}
		}
	}
}

func TestDistIndexAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		base := randomGridSet(rng, 1+rng.Intn(30))
		extra := randomGridSet(rng, 1+rng.Intn(30))
		probe := randomGridSet(rng, 1+rng.Intn(30))
		delta := float64(rng.Intn(8))
		ix := NewDistIndex(base, delta)
		ix.Add(extra)
		want := DistNaive(base, probe) <= delta || DistNaive(extra, probe) <= delta
		if got := ix.Connected(probe); got != want {
			t.Fatalf("trial %d δ=%v: Connected=%v, want %v", trial, delta, got, want)
		}
	}
}

// TestDistIndexExtremeCoordinates is the regression test for the bucket-key
// overflow: with side 1, grid coordinates above 2^31 used to overflow the
// int32 bucket keys, collapsing far-apart cells into colliding buckets and
// (worse) separating genuinely close cells into buckets that no longer
// neighbor each other.
func TestDistIndexExtremeCoordinates(t *testing.T) {
	const big = uint64(1) << 33 // past int32 when divided by side=1
	x, y := uint32(big>>2), uint32(big>>2+3)
	q := New(geo.ZEncode(x, y))
	near := New(geo.ZEncode(x+1, y+1))
	far := New(geo.ZEncode(x+1000, y+1000))
	ix := NewDistIndex(q, 2)
	if !ix.Connected(near) {
		t.Error("adjacent cell at extreme coordinates should be connected")
	}
	if ix.Connected(far) {
		t.Error("distant cell at extreme coordinates should not be connected")
	}
	// Exhaustive agreement with the naive distance around the extreme
	// corner, including coordinates on both sides of the 2^31 boundary.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		mk := func() Set {
			ids := make([]uint64, 1+rng.Intn(20))
			for i := range ids {
				ids[i] = geo.ZEncode(
					uint32(1)<<31-10+uint32(rng.Intn(20)),
					uint32(1)<<31-10+uint32(rng.Intn(20)))
			}
			return New(ids...)
		}
		a, b := mk(), mk()
		for _, delta := range []float64{0, 1, 3, 10} {
			want := DistNaive(a, b) <= delta
			if got := NewDistIndex(a, delta).Connected(b); got != want {
				t.Fatalf("trial %d δ=%v: Connected=%v, naive=%v", trial, delta, got, want)
			}
		}
	}
}

// TestDistIndexCompactParity checks the Compact-fed entry points agree with
// the Set-fed ones.
func TestDistIndexCompactParity(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 100; trial++ {
		base := randomGridSet(rng, 1+rng.Intn(40))
		extra := randomGridSet(rng, 1+rng.Intn(40))
		probe := randomGridSet(rng, 1+rng.Intn(40))
		delta := float64(rng.Intn(10))
		a := NewDistIndex(base, delta)
		a.Add(extra)
		b := NewDistIndex(base, delta)
		b.AddCompact(FromSet(extra))
		if got, want := b.ConnectedCompact(FromSet(probe)), a.Connected(probe); got != want {
			t.Fatalf("trial %d: compact path Connected=%v, set path %v", trial, got, want)
		}
	}
	var nilIx *DistIndex
	nilIx.AddCompact(FromSet(New(1))) // must not panic
	if nilIx.ConnectedCompact(FromSet(New(1))) {
		t.Error("nil index connects nothing")
	}
}

func TestDistIndexEdgeCases(t *testing.T) {
	if ix := NewDistIndex(nil, 5); ix != nil {
		t.Error("empty set should yield nil index")
	}
	if ix := NewDistIndex(New(1), -1); ix != nil {
		t.Error("negative delta should yield nil index")
	}
	var nilIx *DistIndex
	if nilIx.Connected(New(1)) {
		t.Error("nil index connects nothing")
	}
	nilIx.Add(New(1)) // must not panic
	ix := NewDistIndex(New(5), 0)
	if !ix.Connected(New(5)) {
		t.Error("identical cell should be connected at δ=0")
	}
	if ix.Connected(nil) {
		t.Error("empty probe is never connected")
	}
}

// distIndexAnchors place test cells at the origin, across the 2^31 boundary
// (offsets 0..63 span 2^31-16 .. 2^31+47) and against the far edge of the
// grid (offset 63 is coordinate 2^32-1).
var distIndexAnchors = []uint32{0, 1<<31 - 16, 1<<32 - 64}

// distIndexDeltas cover every block level boundary the anchors can show:
// 15, 16 and 17 straddle L = 4/5, 2^31 is L = 31 (two blocks a side, split
// at the middle anchor) and +Inf is L = 32, where every cell is in block 0.
var distIndexDeltas = []float64{0, 0.5, 1, 2.5, 10, 15, 16, 17, 1 << 31, math.Inf(1)}

// anchoredCells decodes byte pairs as (x, y) offsets in 0..63 from anchor.
// Repeated pairs are kept: New de-duplicates, the index entry points that
// take raw cells (Add) must cope on their own.
func anchoredCells(anchor uint32, b []byte) []uint64 {
	ids := make([]uint64, 0, len(b)/2)
	for i := 0; i+1 < len(b); i += 2 {
		ids = append(ids, geo.ZEncode(anchor+uint32(b[i]%64), anchor+uint32(b[i+1]%64)))
	}
	return ids
}

// checkDistIndexVsNaive holds every connectivity entry point — Connected,
// ConnectedCompact, NearRect, WithinDist — to the O(n·m) oracle, on an
// index built over base and on the same index grown by extra (handed over
// with its duplicates) through Add and through AddCompact.
func checkDistIndexVsNaive(t *testing.T, base, extra []uint64, probe Set, delta float64) {
	t.Helper()
	check := func(stage string, ix *DistIndex, indexed Set) {
		t.Helper()
		want := DistNaive(indexed, probe) <= delta
		if got := ix.Connected(probe); got != want {
			t.Fatalf("%s δ=%v: Connected=%v, naive=%v\nindexed=%v\nprobe=%v", stage, delta, got, want, indexed, probe)
		}
		if got := ix.ConnectedCompact(FromSet(probe)); got != want {
			t.Fatalf("%s δ=%v: ConnectedCompact=%v, naive=%v", stage, delta, got, want)
		}
		if got := WithinDist(indexed, probe, delta); got != want {
			t.Fatalf("%s δ=%v: WithinDist=%v, naive=%v", stage, delta, got, want)
		}
		// NearRect may say true for a far set, never false for a near one —
		// for the probe's MBR and for every single cell of it.
		near := func(s Set) bool {
			minX, minY, maxX, maxY, ok := s.Bounds()
			return ok && ix.NearRect(geo.Rect{
				MinX: float64(minX), MinY: float64(minY), MaxX: float64(maxX), MaxY: float64(maxY)})
		}
		if want && !near(probe) {
			t.Fatalf("%s δ=%v: NearRect rejected the MBR of a connected set\nindexed=%v\nprobe=%v", stage, delta, indexed, probe)
		}
		for _, c := range probe {
			if one := New(c); DistNaive(indexed, one) <= delta && !near(one) {
				t.Fatalf("%s δ=%v: NearRect rejected connected cell %d", stage, delta, c)
			}
		}
	}
	b := New(base...)
	ix := NewDistIndex(b, delta)
	if len(b) == 0 {
		if ix != nil {
			t.Fatal("empty base should yield a nil index")
		}
		return
	}
	check("built", ix, b)
	ix.Add(Set(extra)) // raw: unsorted, with duplicates
	check("after Add", ix, b.Union(New(extra...)))
	viaCompact := NewDistIndex(b, delta)
	viaCompact.AddCompact(FromSet(New(extra...)))
	check("after AddCompact", viaCompact, b.Union(New(extra...)))
}

// TestDistIndexVsNaive runs the oracle check over random sets at every
// anchor and threshold, with cells repeated on the Add side.
func TestDistIndexVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, anchor := range distIndexAnchors {
		for _, delta := range distIndexDeltas {
			for trial := 0; trial < 40; trial++ {
				raw := func() []byte {
					b := make([]byte, 2*(1+rng.Intn(24)))
					rng.Read(b)
					return b
				}
				extra := raw()
				extra = append(extra, extra[:len(extra)/2&^1]...) // duplicate cells
				checkDistIndexVsNaive(t, anchoredCells(anchor, raw()), anchoredCells(anchor, extra),
					New(anchoredCells(anchor, raw())...), delta)
			}
		}
	}
}

func FuzzDistIndexVsNaive(f *testing.F) {
	for i, delta := range distIndexDeltas {
		f.Add([]byte{0, 0, 9, 9, 63, 63}, []byte{5, 5, 5, 5}, []byte{12, 0, 63, 62}, delta, uint8(i))
	}
	f.Fuzz(func(t *testing.T, base, extra, probe []byte, delta float64, anchorSel uint8) {
		// Any finite δ: block levels up to 32. At +Inf the oracle's distance
		// to an empty probe, +Inf, would count as connected.
		if !(delta >= 0) || math.IsInf(delta, 1) || len(base)+len(extra)+len(probe) > 600 {
			t.Skip()
		}
		anchor := distIndexAnchors[int(anchorSel)%len(distIndexAnchors)]
		checkDistIndexVsNaive(t, anchoredCells(anchor, base), anchoredCells(anchor, extra),
			New(anchoredCells(anchor, probe)...), delta)
	})
}

// TestDistIndexProbeZeroAlloc: probing is the inner loop of connectivity
// verification and must not allocate; building allocates the index and its
// near list, nothing per cell or per block.
func TestDistIndexProbeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	q := randomGridSet(rng, 2000)
	s := New(geo.ZEncode(500, 500), geo.ZEncode(70, 70)) // first far, then near: every probe path runs
	sc := FromSet(s)
	ix := NewDistIndex(q, 3)
	r := geo.Rect{MinX: 70, MinY: 70, MaxX: 500, MaxY: 500}
	if allocs := testing.AllocsPerRun(100, func() {
		ix.Connected(s)
		ix.ConnectedCompact(sc)
		ix.NearRect(r)
	}); allocs != 0 {
		t.Errorf("probing allocated %.1f times", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { NewDistIndex(q, 3) }); allocs > 4 {
		t.Errorf("NewDistIndex allocated %.1f times, want <= 4", allocs)
	}
}

// trailSet returns n cells along a walk from (x, y) on a 4096² grid that
// keeps its heading for a while before turning: the shape of a route
// gridded at θ = 12.
func trailSet(rng *rand.Rand, x, y, n int) Set {
	ids := make([]uint64, 0, n)
	dx, dy := 1, 0
	for len(ids) < n {
		if rng.Intn(16) == 0 {
			dx, dy = rng.Intn(3)-1, rng.Intn(3)-1
		}
		x, y = min(max(x+dx, 0), 4095), min(max(y+dy, 0), 4095)
		ids = append(ids, geo.ZEncode(uint32(x), uint32(y)))
	}
	return New(ids...)
}

// sparseDistFixture is a connectivity round's shape on cjsp-small: an
// indexed delta of about 1,300 cells on four routes, and 64 candidate
// datasets of about 600 cells, half starting near the delta (some connect)
// and half anywhere on the grid.
func sparseDistFixture() (q Set, cands []Set) {
	rng := rand.New(rand.NewSource(27))
	for range 4 {
		q = q.Union(trailSet(rng, rng.Intn(4096), rng.Intn(4096), 330))
	}
	for i := range 64 {
		x, y := rng.Intn(4096), rng.Intn(4096)
		if i%2 == 0 {
			cx, cy := geo.ZDecode(q[rng.Intn(len(q))])
			x, y = int(cx)+rng.Intn(81)-40, int(cy)+rng.Intn(81)-40
		}
		cands = append(cands, trailSet(rng, x, y, 600))
	}
	return q, cands
}

func BenchmarkNewDistIndex(b *testing.B) {
	q, _ := sparseDistFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDistIndex(q, 10)
	}
}

func BenchmarkDistIndexConnectedSparse(b *testing.B) {
	q, cands := sparseDistFixture()
	ix := NewDistIndex(q, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range cands {
			ix.Connected(s)
		}
	}
}

func BenchmarkDistIndexConnected(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	q := randomGridSet(rng, 2000)
	s := randomGridSet(rng, 200)
	ix := NewDistIndex(q, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Connected(s)
	}
}

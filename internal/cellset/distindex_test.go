package cellset

import (
	"fmt"
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
		ix.Add(FromSet(extra))
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
		a := NewDistIndex(base.Union(extra), delta)
		b := NewDistIndex(base, delta)
		b.Add(FromSet(extra))
		var c DistIndex
		c.Rebuild(FromSet(base.Union(extra)), delta)
		want := a.Connected(probe)
		if got := b.ConnectedCompact(FromSet(probe)); got != want {
			t.Fatalf("trial %d: compact path Connected=%v, set path %v", trial, got, want)
		}
		if got := c.ConnectedCompact(FromSet(probe)); got != want {
			t.Fatalf("trial %d: rebuilt index Connected=%v, set path %v", trial, got, want)
		}
	}
	var nilIx *DistIndex
	nilIx.Add(FromSet(New(1))) // must not panic
	if nilIx.ConnectedCompact(FromSet(New(1))) {
		t.Error("nil index connects nothing")
	}
}

// TestDistIndexConnectedCompactBitmap holds ConnectedCompact to the oracle
// on probes dense enough for bitmap containers: 70×70 squares, alone in a
// chunk or straddling chunk edges, far from, near to and across a sparse
// indexed set, so the bitmap walk resumes past far words and leaves chunks
// by both ways.
func TestDistIndexConnectedCompactBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	square := func(x0, y0 uint32) Set {
		ids := make([]uint64, 0, 70*70)
		for y := y0; y < y0+70; y++ {
			for x := x0; x < x0+70; x++ {
				ids = append(ids, geo.ZEncode(x, y))
			}
		}
		return New(ids...)
	}
	bitmaps := 0
	for trial := 0; trial < 40; trial++ {
		var ids []uint64
		for range 1 + rng.Intn(6) {
			ids = append(ids, geo.ZEncode(uint32(rng.Intn(1024)), uint32(rng.Intn(1024))))
		}
		q := New(ids...)
		probe := square(uint32(rng.Intn(960)), uint32(rng.Intn(960)))
		if trial%4 == 0 {
			probe = probe.Union(square(uint32(rng.Intn(960)), uint32(rng.Intn(960))))
		}
		pc := FromSet(probe)
		for i := range pc.cts {
			if pc.cts[i].bm != nil {
				bitmaps++
			}
		}
		for _, delta := range []float64{0, 3, 10, 40} {
			want := DistNaive(q, probe) <= delta
			if got := NewDistIndex(q, delta).ConnectedCompact(pc); got != want {
				t.Fatalf("trial %d δ=%v: ConnectedCompact=%v, naive=%v", trial, delta, got, want)
			}
		}
	}
	if bitmaps == 0 {
		t.Fatal("no probe had a bitmap container: the test exercises nothing")
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
	nilIx.Add(FromSet(New(1))) // must not panic
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
// Repeated pairs are kept, for New to de-duplicate.
func anchoredCells(anchor uint32, b []byte) []uint64 {
	ids := make([]uint64, 0, len(b)/2)
	for i := 0; i+1 < len(b); i += 2 {
		ids = append(ids, geo.ZEncode(anchor+uint32(b[i]%64), anchor+uint32(b[i+1]%64)))
	}
	return ids
}

// checkDistIndexVsNaive holds every connectivity entry point — Connected,
// ConnectedCompact, NearRect, WithinDist — and Bounds to the O(n·m)
// oracle, on an index built over base, on the same index grown by extra
// through Add, and on an index rebuilt over both.
func checkDistIndexVsNaive(t *testing.T, base, extra []uint64, probe Set, delta float64) {
	t.Helper()
	b := New(base...)
	ix := NewDistIndex(b, delta)
	if len(b) == 0 {
		if ix != nil {
			t.Fatal("empty base should yield a nil index")
		}
		return
	}
	checkDistIndex(t, "built", ix, b, probe, delta)
	all := b.Union(New(extra...))
	ix.Add(FromSet(New(extra...)))
	checkDistIndex(t, "after Add", ix, all, probe, delta)
	var rebuilt DistIndex
	rebuilt.Rebuild(FromSet(all), delta)
	checkDistIndex(t, "rebuilt", &rebuilt, all, probe, delta)
}

// checkDistIndex holds ix, an index over indexed, to the oracle for probe.
func checkDistIndex(t *testing.T, stage string, ix *DistIndex, indexed, probe Set, delta float64) {
	t.Helper()
	checkDistIndexBounds(t, stage, ix, indexed)
	want := len(indexed) > 0 && DistNaive(indexed, probe) <= delta
	if got := ix.Connected(probe); got != want {
		t.Fatalf("%s δ=%v: Connected=%v, naive=%v\nindexed=%v\nprobe=%v", stage, delta, got, want, indexed, probe)
	}
	if got := ix.ConnectedCompact(FromSet(probe)); got != want {
		t.Fatalf("%s δ=%v: ConnectedCompact=%v, naive=%v\nindexed=%v\nprobe=%v", stage, delta, got, want, indexed, probe)
	}
	if got := WithinDist(indexed, probe, delta); got != want {
		t.Fatalf("%s δ=%v: WithinDist=%v, naive=%v", stage, delta, got, want)
	}
	// NearRect may say true for a far set, never false for a near one —
	// for the probe's MBR and for every single cell of it — and says false
	// for everything when nothing is indexed.
	near := func(s Set) bool {
		minX, minY, maxX, maxY, ok := s.Bounds()
		return ok && ix.NearRect(geo.Rect{
			MinX: float64(minX), MinY: float64(minY), MaxX: float64(maxX), MaxY: float64(maxY)})
	}
	if len(indexed) == 0 && near(probe) {
		t.Fatalf("%s: NearRect accepted a rectangle with nothing indexed", stage)
	}
	if want && !near(probe) {
		t.Fatalf("%s δ=%v: NearRect rejected the MBR of a connected set\nindexed=%v\nprobe=%v", stage, delta, indexed, probe)
	}
	for _, c := range probe {
		if one := New(c); len(indexed) > 0 && DistNaive(indexed, one) <= delta && !near(one) {
			t.Fatalf("%s δ=%v: NearRect rejected connected cell %d", stage, delta, c)
		}
	}
}

// checkDistIndexBounds holds ix.Bounds to the MBR of indexed.
func checkDistIndexBounds(t *testing.T, stage string, ix *DistIndex, indexed Set) {
	t.Helper()
	x0, y0, x1, y1, ok := ix.Bounds()
	wx0, wy0, wx1, wy1, wok := indexed.Bounds()
	if ok != wok || x0 != wx0 || y0 != wy0 || x1 != wx1 || y1 != wy1 {
		t.Fatalf("%s: Bounds = (%d %d %d %d %v), want (%d %d %d %d %v)", stage, x0, y0, x1, y1, ok, wx0, wy0, wx1, wy1, wok)
	}
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

// rebuildDeltas straddle the block levels a reused index moves between:
// L = 0 (δ ≤ 1), 4/5 (15, 16, 17), 8/9 (255, 256, 257) and 17.
var rebuildDeltas = []float64{0, 1, 15, 16, 17, 255, 256, 257, 70000}

// rebuildCells decodes byte pairs as (x, y) offsets in 0..63 from anchor,
// scaled by 1 << scale: towards the grid's far edge from the top anchor,
// so every set stays on the grid.
func rebuildCells(anchor uint32, scale uint, b []byte) Set {
	ids := make([]uint64, 0, len(b)/2)
	for i := 0; i+1 < len(b); i += 2 {
		x, y := uint32(b[i]%64)<<scale, uint32(b[i+1]%64)<<scale
		if anchor > 1<<31 {
			x, y = 1<<32-1-x, 1<<32-1-y
		} else {
			x, y = anchor+x, anchor+y
		}
		ids = append(ids, geo.ZEncode(x, y))
	}
	return New(ids...)
}

// FuzzDistIndexRebuild rebuilds one index over a sequence of (set, δ)
// pairs, empty sets among them, and after every rebuild holds it to the
// oracle: nothing of an earlier build's block table or near words may
// leak into a later one. data is a sequence of records: a selector byte
// (δ from rebuildDeltas, and the scale of the coordinates), a length byte,
// then that many byte pairs of cells; probe is decoded at each record's
// scale.
func FuzzDistIndexRebuild(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 9, 9, 63, 63, 0x14, 0, 0x25, 2, 1, 1, 40, 40}, []byte{1, 1, 10, 10}, uint8(0))
	f.Add([]byte{0x98, 2, 0, 0, 63, 63, 0x3a, 0, 0x61, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0x07, 1, 32, 32}, []byte{4, 4, 33, 33}, uint8(2))
	f.Add([]byte{0x55, 2, 3, 3, 60, 60, 0x56, 2, 3, 3, 60, 60, 0x57, 0, 0x58, 1, 3, 3}, []byte{0, 0, 63, 63, 30, 30}, uint8(1))
	f.Fuzz(func(t *testing.T, data, probe []byte, anchorSel uint8) {
		if len(data)+len(probe) > 1200 {
			t.Skip()
		}
		anchor := distIndexAnchors[int(anchorSel)%len(distIndexAnchors)]
		var ix DistIndex
		for round := 0; len(data) >= 2; round++ {
			sel, n := data[0], 2*int(data[1]%64)
			data = data[2:]
			n = min(n, len(data)&^1)
			delta, scale := rebuildDeltas[int(sel%16)%len(rebuildDeltas)], uint(sel>>4)%11
			cells := rebuildCells(anchor, scale, data[:n])
			data = data[n:]
			ix.Rebuild(FromSet(cells), delta)
			checkDistIndex(t, fmt.Sprintf("rebuild %d", round), &ix, cells, rebuildCells(anchor, scale, probe), delta)
		}
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
	// A reused index keeps its cell store and its near array while its
	// sets do not outgrow them.
	qc, small := FromSet(q), FromSet(q[:len(q)/2])
	var re DistIndex
	re.Rebuild(qc, 3)
	store, words := &re.store[0], &re.words[:1][0]
	re.Rebuild(small, 10)
	re.Rebuild(qc, 3)
	if &re.store[0] != store || &re.words[:1][0] != words {
		t.Error("Rebuild replaced the index's buffers, though its sets did not outgrow them")
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

// BenchmarkDistIndexConnectedCompactSparse is the sparse probe over the
// candidates' container form, the path of file-backed datasets.
func BenchmarkDistIndexConnectedCompactSparse(b *testing.B) {
	q, cands := sparseDistFixture()
	ix := NewDistIndex(q, 10)
	compact := make([]*Compact, len(cands))
	for i, s := range cands {
		compact[i] = FromSet(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range compact {
			ix.ConnectedCompact(s)
		}
	}
}

// BenchmarkDistIndexRebuild rebuilds one index over a round's container
// delta, as a coverage session does every round.
func BenchmarkDistIndexRebuild(b *testing.B) {
	q, _ := sparseDistFixture()
	qc := FromSet(q)
	var ix DistIndex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Rebuild(qc, 10)
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

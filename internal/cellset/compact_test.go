package cellset

import (
	"math/rand"
	"slices"
	"testing"

	"dits/internal/geo"
)

// denseChunkSet builds a set with >arrayMaxLen cells inside one chunk, so
// its container is a bitmap.
func denseChunkSet(base uint64, n int) Set {
	s := make(Set, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, base<<chunkBits|uint64(i*3%((1<<chunkBits)-1)))
	}
	return s.normalize()
}

// clusteredSet mimics z-order-clustered data: a few dense runs of
// consecutive cell IDs, which is what spatially compact datasets produce
// after Morton encoding.
func clusteredSet(rng *rand.Rand, runs, runLen int) Set {
	s := make(Set, 0, runs*runLen)
	for r := 0; r < runs; r++ {
		start := uint64(rng.Int63n(1 << 24))
		for i := 0; i < runLen; i++ {
			if rng.Intn(4) > 0 { // ~75% fill: dense but not contiguous
				s = append(s, start+uint64(i))
			}
		}
	}
	return s.normalize()
}

func TestCompactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []Set{
		nil,
		New(0),
		New(1, 2, 3, 1<<20, 1<<40),
		randomSet(rng, 300, 1<<30),
		denseChunkSet(7, 6000),
		clusteredSet(rng, 5, 3000),
	}
	for i, s := range cases {
		c := FromSet(s)
		if c.Len() != s.Len() {
			t.Fatalf("case %d: Len = %d, want %d", i, c.Len(), s.Len())
		}
		if got := c.Set(); !slices.Equal(got, s) {
			t.Fatalf("case %d: round trip = %v, want %v", i, got, s)
		}
		if !FromSet(s).Equal(c) {
			t.Fatalf("case %d: Equal not reflexive across builds", i)
		}
	}
}

func TestCompactContainerForms(t *testing.T) {
	sparse := FromSet(New(1, 2, 3))
	if sparse.cts[0].bm != nil {
		t.Error("3-cell chunk should be an array container")
	}
	dense := FromSet(denseChunkSet(0, 6000))
	if dense.cts[0].bm == nil {
		t.Errorf("%d-cell chunk should be a bitmap container", dense.n)
	}
	// Diff that shrinks a bitmap chunk below the threshold must convert
	// back to the canonical array form.
	most := denseChunkSet(0, 6000)
	few := slices.Clone(most[:10])
	d := FromSet(most).Diff(FromSet(diff(most, few)))
	if !slices.Equal(d.Set(), few) {
		t.Fatalf("diff = %v, want %v", d.Set(), few)
	}
	if len(d.cts) != 1 || d.cts[0].bm != nil {
		t.Error("10-cell result chunk should have converted to an array")
	}
}

// checkOps verifies every Compact operation against the flat-slice
// reference on one pair of sets. It is the shared core of the property
// test and the differential fuzz target.
func checkOps(t *testing.T, s, u Set) {
	t.Helper()
	cs, cu := FromSet(s), FromSet(u)
	if got, want := cs.IntersectCount(cu), s.IntersectCount(u); got != want {
		t.Fatalf("IntersectCount = %d, flat %d\ns=%v\nu=%v", got, want, s, u)
	}
	if got, want := cu.IntersectCount(cs), u.IntersectCount(s); got != want {
		t.Fatalf("IntersectCount not symmetric: %d vs flat %d", got, want)
	}
	if got, want := cs.MarginalGain(cu), s.MarginalGain(u); got != want {
		t.Fatalf("MarginalGain = %d, flat %d\ns=%v\nu=%v", got, want, s, u)
	}
	un := cs.Union(cu)
	if !slices.Equal(un.Set(), s.Union(u)) {
		t.Fatalf("Union = %v, flat %v", un.Set(), s.Union(u))
	}
	if un.Len() != s.Union(u).Len() {
		t.Fatalf("Union Len = %d, flat %d", un.Len(), s.Union(u).Len())
	}
	if !un.Equal(FromSet(s.Union(u))) {
		t.Fatalf("Union not canonical: computed and rebuilt forms differ")
	}
	if got, want := cs.Intersect(cu).Set(), intersect(s, u); !slices.Equal(got, want) {
		t.Fatalf("Intersect = %v, flat %v", got, want)
	}
	if got, want := cs.Diff(cu).Set(), diff(s, u); !slices.Equal(got, want) {
		t.Fatalf("Diff = %v, flat %v", got, want)
	}
	if !cs.Diff(cu).Equal(FromSet(diff(s, u))) {
		t.Fatalf("Diff not canonical")
	}
	if cs.Equal(cu) != slices.Equal(s, u) {
		t.Fatalf("Equal = %v, flat %v", cs.Equal(cu), slices.Equal(s, u))
	}
}

func TestCompactOpsAgainstFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		var s, u Set
		switch trial % 3 {
		case 0: // sparse uniform
			s = randomSet(rng, rng.Intn(400), 1<<26)
			u = randomSet(rng, rng.Intn(400), 1<<26)
		case 1: // clustered, overlapping ranges
			s = clusteredSet(rng, 1+rng.Intn(4), 2000)
			u = clusteredSet(rng, 1+rng.Intn(4), 2000).Union(slices.Clone(s[:len(s)/2]))
		default: // dense bitmap chunks with partial overlap
			s = denseChunkSet(uint64(rng.Intn(3)), 4500+rng.Intn(2000))
			u = denseChunkSet(uint64(rng.Intn(3)), 4500+rng.Intn(2000))
		}
		checkOps(t, s, u)
		rect := make([]byte, 4)
		rng.Read(rect)
		checkClip(t, s, fuzzRect(rect))
	}
}

func TestCompactForEachOrderAndStop(t *testing.T) {
	s := New(5, 1, 9, 70000, 70001)
	c := FromSet(s)
	var got Set
	c.ForEach(func(cell uint64) bool {
		got = append(got, cell)
		return true
	})
	if !slices.Equal(got, New(1, 5, 9, 70000, 70001)) {
		t.Fatalf("ForEach order = %v", got)
	}
	calls := 0
	c.ForEach(func(uint64) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("ForEach did not stop: %d calls", calls)
	}
}

func TestCompactNilSafety(t *testing.T) {
	var nilC *Compact
	full := FromSet(New(1, 2, 3))
	if nilC.Len() != 0 || !nilC.IsEmpty() {
		t.Error("nil Compact should be empty")
	}
	if nilC.IntersectCount(full) != 0 || full.IntersectCount(nilC) != 0 {
		t.Error("intersect with nil should be 0")
	}
	if got := nilC.Union(full); got.Len() != 3 {
		t.Errorf("nil ∪ full = %d cells, want 3", got.Len())
	}
	if got := full.Union(nilC); got.Len() != 3 {
		t.Errorf("full ∪ nil = %d cells, want 3", got.Len())
	}
	if got := full.Diff(nilC); got.Len() != 3 {
		t.Errorf("full \\ nil = %d cells, want 3", got.Len())
	}
	if got := nilC.Diff(full); got.Len() != 0 {
		t.Errorf("nil \\ full = %d cells, want 0", got.Len())
	}
	if nilC.MarginalGain(full) != 3 {
		t.Error("nil set gains all of full")
	}
	if !nilC.Equal(FromSet(nil)) {
		t.Error("nil and empty should be Equal")
	}
	if nilC.Set() != nil {
		t.Error("nil Compact materializes to nil Set")
	}
}

// TestSetOpAllocs pins the counting kernels at zero allocations — the
// -benchmem guarantee the microbenchmarks report, asserted so CI catches a
// regression without parsing benchmark output.
func TestSetOpAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s := clusteredSet(rng, 4, 3000)
	u := clusteredSet(rng, 4, 3000).Union(slices.Clone(s[:len(s)/3]))
	cs, cu := FromSet(s), FromSet(u)
	ranks := make([]uint32, 0, cs.IntersectCount(cu))
	checks := []struct {
		name string
		fn   func()
	}{
		{"Set.IntersectCount", func() { s.IntersectCount(u) }},
		{"Set.MarginalGain", func() { s.MarginalGain(u) }},
		{"Compact.IntersectCount", func() { cs.IntersectCount(cu) }},
		{"Compact.MarginalGain", func() { cs.MarginalGain(cu) }},
		{"Compact.AppendIntersectRanks", func() { ranks = cs.AppendIntersectRanks(cu, ranks[:0]) }},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(100, c.fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", c.name, avg)
		}
	}
}

// FuzzSetOps differentially fuzzes the container engine against the flat
// reference. Inputs decode into runs of cells so that fuzzing reaches
// array containers, bitmap containers (runs accumulate past the 4096
// array↔bitmap threshold), and chunk-boundary cells.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5}, []byte{0, 0, 2, 5})
	f.Add([]byte{1, 255, 255, 255, 2, 0, 0, 9}, []byte{1, 255, 0, 200})
	f.Add([]byte{}, []byte{3, 1, 0, 50})
	// Clip rectangles across chunk edges, over a bitmap chunk, off the
	// grid and crossed (empty).
	f.Add([]byte{0, 0, 0, 255, 1, 0, 0, 255, 3, 128, 128, 40}, []byte{60, 10, 70, 40})
	f.Add([]byte{2, 0, 0, 255, 2, 8, 0, 255, 2, 16, 0, 255, 2, 24, 0, 255, 2, 32, 0, 255}, []byte{100, 0, 120, 255})
	f.Add([]byte{5, 3, 3, 255, 6, 0, 9, 90}, []byte{230, 200, 255, 255})
	f.Add([]byte{1, 2, 3, 4}, []byte{90, 0, 10, 255})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		s, u := fuzzSet(a), fuzzSet(b)
		checkOps(t, s, u)
		checkClip(t, s, fuzzRect(b))
	})
}

// fuzzGrid is the grid fuzzRect's rectangles are on: one unit per cell,
// 1024 cells a side — wide enough for every fuzzSet cell.
var fuzzGrid = geo.NewGrid(10, geo.Rect{MaxX: 1024, MaxY: 1024})

// fuzzRect derives a clip rectangle from the first four bytes of data:
// corners on a 5-cell lattice from −64 to 1211, so that rectangles
// straddle chunk edges, leave the 1024-cell grid, or cross (empty).
func fuzzRect(data []byte) geo.Rect {
	var b [4]byte
	copy(b[:], data)
	at := func(v byte) float64 { return float64(v)*5 - 64 }
	return geo.Rect{MinX: at(b[0]), MinY: at(b[1]), MaxX: at(b[2]) + 0.5, MaxY: at(b[3]) + 0.5}
}

// checkClip verifies Set.FilterRect and Compact.ClipRect against a
// per-cell filter of s, and Compact.Bounds against Set.Bounds on s and on
// the clipped set.
func checkClip(t *testing.T, s Set, r geo.Rect) {
	t.Helper()
	var want Set
	if !r.IsEmpty() {
		x0, y0, x1, y1 := fuzzGrid.RectCoords(r)
		for _, c := range s {
			if x, y := geo.ZDecode(c); x >= x0 && x <= x1 && y >= y0 && y <= y1 {
				want = append(want, c)
			}
		}
	}
	if got := s.FilterRect(fuzzGrid, r); !slices.Equal(got, want) {
		t.Fatalf("FilterRect(%v) kept %d cells, per-cell filter %d", r, len(got), len(want))
	}
	clipped := FromSet(s).ClipRect(fuzzGrid, r)
	if !clipped.Equal(FromSet(want)) {
		t.Fatalf("ClipRect(%v) kept %v, per-cell filter %v", r, clipped.Set(), want)
	}
	if !r.IsEmpty() {
		if got := FromSet(s).Meets(spanOf(fuzzGrid, r)); got != (len(want) > 0) {
			t.Fatalf("Meets(%v) = %v with %d cells inside", r, got, len(want))
		}
	}
	for _, set := range []Set{s, want} {
		x0, y0, x1, y1, ok := set.Bounds()
		cx0, cy0, cx1, cy1, cok := FromSet(set).Bounds()
		if cx0 != x0 || cy0 != y0 || cx1 != x1 || cy1 != y1 || cok != ok {
			t.Fatalf("Compact.Bounds = %d,%d,%d,%d,%v; Set.Bounds = %d,%d,%d,%d,%v",
				cx0, cy0, cx1, cy1, cok, x0, y0, x1, y1, ok)
		}
	}
}

// fuzzSet decodes bytes into a Set: each 4-byte group (key, hi, lo, run)
// contributes a run of run+1 consecutive cells starting at
// key%8 << 16 | hi<<8|lo, scaled so runs can cross chunk boundaries and
// pile one chunk past the bitmap threshold.
func fuzzSet(data []byte) Set {
	var s Set
	for i := 0; i+3 < len(data); i += 4 {
		base := uint64(data[i]%8)<<chunkBits | uint64(data[i+1])<<8 | uint64(data[i+2])
		run := uint64(data[i+3])*8 + 1
		for c := base; c < base+run; c++ {
			s = append(s, c)
		}
	}
	return s.normalize()
}

// Microbenchmarks for the set-operation kernels, flat vs container, on the
// two workload shapes that matter: z-order-clustered (dense chunks, the
// real-dataset case) and uniform-sparse (the adversarial case). Run with
// -benchmem; TestSetOpAllocs asserts the counting kernels stay at zero.
func benchSets(clustered bool) (Set, Set) {
	rng := rand.New(rand.NewSource(42))
	if clustered {
		s := clusteredSet(rng, 8, 20000)
		u := clusteredSet(rng, 8, 20000).Union(slices.Clone(s[:len(s)/2]))
		return s, u
	}
	return randomSet(rng, 100000, 1<<26), randomSet(rng, 100000, 1<<26)
}

func BenchmarkIntersectCount(b *testing.B) {
	for _, w := range []struct {
		name      string
		clustered bool
	}{{"clustered", true}, {"uniform", false}} {
		s, u := benchSets(w.clustered)
		cs, cu := FromSet(s), FromSet(u)
		b.Run(w.name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.IntersectCount(u)
			}
		})
		b.Run(w.name+"/compact", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs.IntersectCount(cu)
			}
		})
	}
}

func BenchmarkUnion(b *testing.B) {
	for _, w := range []struct {
		name      string
		clustered bool
	}{{"clustered", true}, {"uniform", false}} {
		s, u := benchSets(w.clustered)
		cs, cu := FromSet(s), FromSet(u)
		b.Run(w.name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Union(u)
			}
		})
		b.Run(w.name+"/compact", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs.Union(cu)
			}
		})
	}
}

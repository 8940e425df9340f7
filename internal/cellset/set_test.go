package cellset

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dits/internal/geo"
)

func TestNewNormalizes(t *testing.T) {
	s := New(5, 3, 5, 1, 3, 9)
	want := Set{1, 3, 5, 9}
	if !slices.Equal(s, want) {
		t.Fatalf("New = %v, want %v", s, want)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
}

func TestFromPoints(t *testing.T) {
	// The example of Fig. 2(b): D1 -> {9, 11}, D2 -> {1, 3}, D3 -> {12, 13}.
	g := geo.NewGrid(2, geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4})
	d1 := FromPoints(g, []geo.Point{geo.Pt(1.5, 2.5), geo.Pt(1.5, 3.5), geo.Pt(1.2, 2.1)})
	if !slices.Equal(d1, Set{9, 11}) {
		t.Errorf("S_D1 = %v, want {9,11}", d1)
	}
	d2 := FromPoints(g, []geo.Point{geo.Pt(1.5, 0.5), geo.Pt(1.5, 1.5)})
	if !slices.Equal(d2, Set{1, 3}) {
		t.Errorf("S_D2 = %v, want {1,3}", d2)
	}
	d3 := FromPoints(g, []geo.Point{geo.Pt(2.5, 2.5), geo.Pt(3.5, 2.5)})
	if !slices.Equal(d3, Set{12, 13}) {
		t.Errorf("S_D3 = %v, want {12,13}", d3)
	}
}

// FuzzNormalize holds Normalize against slices.Sort + slices.Compact,
// across radixMin, where it switches from the comparison sort to the radix
// sort. Each 8 bytes of raw are one ID, shifted right by shift%64 so that
// fewer bytes vary and duplicates are common. The result must alias ids.
func FuzzNormalize(f *testing.F) {
	words := func(ids ...uint64) []byte {
		var raw []byte
		for _, id := range ids {
			raw = binary.LittleEndian.AppendUint64(raw, id)
		}
		return raw
	}
	rng := rand.New(rand.NewSource(5))
	random := func(n int, mask uint64) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = rng.Uint64() & mask
		}
		return ids
	}
	top := uint32(1)<<geo.MaxTheta - 1 // the last row and column at MaxTheta
	var edge []uint64
	for i := range uint32(80) {
		edge = append(edge, geo.ZEncode(top-i%9, top-i%7), geo.ZEncode(i%5, top-i%3))
	}
	for _, n := range []int{0, 1, 63, 64, 65} {
		f.Add(words(random(n, ^uint64(0))...), uint8(0))
		f.Add(words(random(n, 0xffff)...), uint8(8)) // 256 distinct IDs at most
	}
	f.Add(words(slices.Repeat([]uint64{7}, 100)...), uint8(0))
	f.Add(words(slices.Repeat(random(20, 0xffffff), 5)...), uint8(0))
	f.Add(words(edge...), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, shift uint8) {
		ids := make([]uint64, len(raw)/8)
		for i := range ids {
			ids[i] = binary.LittleEndian.Uint64(raw[8*i:]) >> (shift % 64)
		}
		want := slices.Compact(slices.Sorted(slices.Values(ids)))
		got := Normalize(ids)
		if !slices.Equal(got, Set(want)) {
			t.Fatalf("Normalize(%d IDs) = %v, want %v", len(ids), got, want)
		}
		if len(got) > 0 && &got[0] != &ids[0] {
			t.Fatal("Normalize's result does not alias its input")
		}
	})
}

func TestContains(t *testing.T) {
	s := New(2, 4, 8)
	for _, c := range []uint64{2, 4, 8} {
		if !s.Contains(c) {
			t.Errorf("Contains(%d) = false, want true", c)
		}
	}
	for _, c := range []uint64{0, 3, 9, 100} {
		if s.Contains(c) {
			t.Errorf("Contains(%d) = true, want false", c)
		}
	}
	if Set(nil).Contains(1) {
		t.Error("empty set should contain nothing")
	}
}

func TestSetAlgebraSmall(t *testing.T) {
	a := New(1, 2, 3, 4)
	b := New(3, 4, 5)
	if got := a.IntersectCount(b); got != 2 {
		t.Errorf("IntersectCount = %d, want 2", got)
	}
	if got := intersect(a, b); !slices.Equal(got, Set{3, 4}) {
		t.Errorf("Intersect = %v, want {3,4}", got)
	}
	if got := a.Union(b); !slices.Equal(got, Set{1, 2, 3, 4, 5}) {
		t.Errorf("Union = %v, want {1..5}", got)
	}
	if got := diff(a, b); !slices.Equal(got, Set{1, 2}) {
		t.Errorf("Diff = %v, want {1,2}", got)
	}
	if got := a.MarginalGain(b); got != 1 {
		t.Errorf("MarginalGain = %d, want 1 (b adds only cell 5)", got)
	}
}

func TestSetAlgebraEdgeCases(t *testing.T) {
	var empty Set
	a := New(1, 2)
	if got := empty.IntersectCount(a); got != 0 {
		t.Errorf("empty ∩ a = %d, want 0", got)
	}
	if got := a.Union(empty); !slices.Equal(got, a) {
		t.Errorf("a ∪ empty = %v, want %v", got, a)
	}
	if got := a.IntersectCount(a); got != 2 {
		t.Errorf("a ∩ a = %d, want 2", got)
	}
	if got := a.MarginalGain(a); got != 0 {
		t.Errorf("gain of a over a = %d, want 0", got)
	}
}

// intersect returns s ∩ t as a new Set: the flat reference the container
// engine's Intersect is checked against.
func intersect(s, t Set) Set {
	if len(s) > len(t) {
		s, t = t, s
	}
	out := make(Set, 0, len(s))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// diff returns s \ t as a new Set: the flat reference the container
// engine's Diff is checked against.
func diff(s, t Set) Set {
	out := make(Set, 0, len(s))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		default:
			j++
		}
	}
	out = append(out, s[i:]...)
	return out
}

// mapOracle computes intersection/union sizes with maps, as ground truth.
func mapOracle(a, b Set) (inter, union int) {
	m := make(map[uint64]bool)
	for _, c := range a {
		m[c] = true
	}
	union = len(m)
	for _, c := range b {
		if m[c] {
			inter++
		} else {
			union++
		}
	}
	return inter, union
}

func randomSet(rng *rand.Rand, n int, space uint64) Set {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(rng.Int63n(int64(space)))
	}
	return New(ids...)
}

func TestSetAlgebraAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomSet(rng, rng.Intn(200), 500)
		b := randomSet(rng, rng.Intn(200), 500)
		wantI, wantU := mapOracle(a, b)
		if got := a.IntersectCount(b); got != wantI {
			t.Fatalf("trial %d: IntersectCount = %d, want %d", trial, got, wantI)
		}
		if got := b.IntersectCount(a); got != wantI {
			t.Fatalf("trial %d: IntersectCount not symmetric", trial)
		}
		if got := a.Union(b).Len(); got != wantU {
			t.Fatalf("trial %d: Union len = %d, want %d", trial, got, wantU)
		}
		if got := intersect(a, b).Len(); got != wantI {
			t.Fatalf("trial %d: Intersect len = %d, want %d", trial, got, wantI)
		}
		if got := diff(a, b).Len(); got != a.Len()-wantI {
			t.Fatalf("trial %d: Diff len = %d, want %d", trial, got, a.Len()-wantI)
		}
	}
}

func TestGallopPathAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		small := randomSet(rng, 5, 1<<20)
		big := randomSet(rng, 4000, 1<<20)
		// Plant some of small inside big to guarantee hits.
		big = big.Union(small[:len(small)/2])
		wantI, _ := mapOracle(small, big)
		if got := small.IntersectCount(big); got != wantI {
			t.Fatalf("trial %d: gallop IntersectCount = %d, want %d", trial, got, wantI)
		}
		if got := big.IntersectCount(small); got != wantI {
			t.Fatalf("trial %d: gallop reversed = %d, want %d", trial, got, wantI)
		}
	}
}

func TestSetPropertyInvariants(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a := New(xs...)
		b := New(ys...)
		i := a.IntersectCount(b)
		// |a∩b| ≤ min(|a|,|b|) and |a∪b| = |a|+|b|−|a∩b| ≥ max(|a|,|b|).
		if i > a.Len() || i > b.Len() {
			return false
		}
		u := a.Union(b).Len()
		if u != a.Len()+b.Len()-i {
			return false
		}
		if u < a.Len() || u < b.Len() {
			return false
		}
		// Union is sorted-unique.
		un := a.Union(b)
		for k := 1; k < len(un); k++ {
			if un[k] <= un[k-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBounds(t *testing.T) {
	s := New(geo.ZEncode(2, 3), geo.ZEncode(7, 1), geo.ZEncode(4, 9))
	minX, minY, maxX, maxY, ok := s.Bounds()
	if !ok || minX != 2 || minY != 1 || maxX != 7 || maxY != 9 {
		t.Fatalf("Bounds = (%d,%d,%d,%d,%v), want (2,1,7,9,true)", minX, minY, maxX, maxY, ok)
	}
	if _, _, _, _, ok := Set(nil).Bounds(); ok {
		t.Error("empty Bounds should be not-ok")
	}
}

func TestFilterRect(t *testing.T) {
	g := geo.NewGrid(2, geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4})
	s := New(0, 1, 3, 9, 12, 15) // coords (0,0),(1,0),(1,1),(1,2),(2,2),(3,3)
	// Keep cells with coords inside [0,2]x[0,2] spatial rect -> grid span
	// x,y in [0,1] inclusive (cell (2,2) spans spatial [2,3] so RectCoords
	// of MaxX=2 lands in cell 2... verify below).
	got := s.FilterRect(g, geo.Rect{MinX: 0, MinY: 0, MaxX: 1.9, MaxY: 1.9})
	if !slices.Equal(got, Set{0, 1, 3}) {
		t.Errorf("FilterRect = %v, want {0,1,3}", got)
	}
	if got := s.FilterRect(g, geo.EmptyRect); got.Len() != 0 {
		t.Errorf("FilterRect(empty) = %v, want empty", got)
	}
	all := s.FilterRect(g, geo.Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10})
	if !slices.Equal(all, s) {
		t.Errorf("FilterRect(everything) = %v, want %v", all, s)
	}
}

func BenchmarkIntersectCountMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomSet(rng, 5000, 1<<24)
	y := randomSet(rng, 5000, 1<<24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.IntersectCount(y)
	}
}

func BenchmarkIntersectCountGallop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomSet(rng, 50, 1<<24)
	y := randomSet(rng, 50000, 1<<24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.IntersectCount(y)
	}
}

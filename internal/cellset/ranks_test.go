package cellset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkRanks compares s.AppendIntersectRanks(u), and the rank pass of a
// probe of u over s, with their definition over the flat sets: the index
// in s of every cell u also holds, ascending, appended after whatever dst
// already carried. It also checks that releasing the probe leaves its
// scratch bitmaps zeroed for the next query.
func checkRanks(t *testing.T, s, u Set) {
	t.Helper()
	cs, cu := FromSet(s), FromSet(u)
	want := []uint32{99}
	for i, c := range s {
		if u.Contains(c) {
			want = append(want, uint32(i))
		}
	}
	got := cs.AppendIntersectRanks(cu, []uint32{99})
	if !slices.Equal(got, want) {
		t.Fatalf("ranks of |s|=%d in |u|=%d: got %d ranks %v, want %d %v",
			len(s), len(u), len(got)-1, head(got), len(want)-1, head(want))
	}
	if n := cs.IntersectCount(cu); len(got)-1 != n {
		t.Fatalf("%d ranks, IntersectCount = %d", len(got)-1, n)
	}
	p := NewProbe(cu)
	got = p.AppendRanks(cs, []uint32{99})
	p.Release()
	if !slices.Equal(got, want) {
		t.Fatalf("probe ranks of |s|=%d in |u|=%d: got %d ranks %v, want %d %v",
			len(s), len(u), len(got)-1, head(got), len(want)-1, head(want))
	}
	for _, bm := range p.spare {
		if *bm != (bitmap{}) {
			t.Fatal("a released probe kept bits set")
		}
	}
}

func head(r []uint32) []uint32 { return r[:min(len(r), 12)] }

func TestAppendIntersectRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sparse := randomSet(rng, 900, 3<<chunkBits) // arrays over three chunks
	bitmapA := denseChunkSet(1, 6000)           // chunk 1 is a bitmap
	bitmapB := denseChunkSet(1, 9000).Union(New(5<<chunkBits | 3))
	wide := randomSet(rng, 3000, 1<<chunkBits) // one long array chunk
	run := func(n int) Set { return denseChunkSet(0, n) }
	manyChunks := randomSet(rng, 4000, (maxProbeBitmaps+20)<<chunkBits)
	cases := []struct {
		name string
		s, u Set
	}{
		{"array x array", sparse, sparse.Union(randomSet(rng, 900, 3<<chunkBits))},
		{"long rank side gallops", wide, every(wide, 40).Union(New(1, 2, 1<<chunkBits-1))},
		{"long probe side gallops", every(wide, 40), wide},
		{"gallop runs off the end", New(1, 2, 3, 4, 5, 6, 7, 8, 9), New(9000)},
		{"rank side 31x the probe's chunk", run(62), New(3, 100)},
		{"rank side 32x the probe's chunk", run(64), New(3, 100)},
		{"rank side 33x the probe's chunk", run(66), New(3, 100)},
		{"probe past its bitmap budget", manyChunks, every(manyChunks, 3).Union(randomSet(rng, 500, (maxProbeBitmaps+20)<<chunkBits))},
		{"bitmap x array", bitmapA, every(bitmapA, 7).Union(sparse)},
		{"array x bitmap", every(bitmapA, 7).Union(sparse), bitmapA},
		{"bitmap x bitmap", bitmapA, bitmapB},
		{"chunks skipped on both sides",
			New(1, 2<<chunkBits|5, 4<<chunkBits|6, 4<<chunkBits|7, 9<<chunkBits|1),
			New(1<<chunkBits|2, 4<<chunkBits|7, 6<<chunkBits, 9<<chunkBits|1)},
		{"disjoint", New(1, 2, 3), New(4, 5, 6)},
		{"empty probe", sparse, nil},
		{"empty rank side", nil, sparse},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkRanks(t, c.s, c.u)
			checkRanks(t, c.u, c.s)
		})
	}
	var nilC *Compact
	if got := nilC.AppendIntersectRanks(FromSet(sparse), nil); len(got) != 0 {
		t.Errorf("nil receiver yielded %d ranks", len(got))
	}
	if got := FromSet(sparse).AppendIntersectRanks(nilC, nil); len(got) != 0 {
		t.Errorf("nil argument yielded %d ranks", len(got))
	}
}

// FuzzIntersectRanks fuzzes the rank kernel and the probe's rank pass
// against their flat definition with FuzzSetOps's decoder, which reaches
// array and bitmap containers and chunk-boundary cells on either side.
func FuzzIntersectRanks(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5}, []byte{0, 0, 2, 5})
	f.Add([]byte{1, 255, 255, 255, 2, 0, 0, 9}, []byte{1, 255, 0, 200})
	f.Add([]byte{}, []byte{3, 1, 0, 50})
	// One chunk past the bitmap threshold against a thin array.
	f.Add([]byte{2, 0, 0, 255, 2, 8, 0, 255, 2, 16, 0, 255, 2, 24, 0, 255, 2, 32, 0, 255}, []byte{2, 9, 7, 0, 3, 0, 0, 1})
	// A chunk of 31, 32 and 33 cells (runs 0..24 and 22..30, 0..24 and
	// 23..31, 0..32) against one of a single cell: either side of the
	// probe's switch from bit tests to galloping.
	f.Add([]byte{0, 0, 0, 3, 0, 0, 22, 1}, []byte{0, 0, 5, 0})
	f.Add([]byte{0, 0, 0, 3, 0, 0, 23, 1}, []byte{0, 0, 5, 0})
	f.Add([]byte{0, 0, 0, 4}, []byte{0, 0, 31, 0})
	// A bitmap chunk (6,123 cells) against a thin array of three cells,
	// one in each run and one in no run.
	f.Add([]byte{1, 0, 0, 255, 1, 8, 0, 255, 1, 16, 0, 255}, []byte{1, 0, 7, 0, 1, 16, 9, 0, 1, 7, 250, 0})
	// A probe chunk past 4,096 cells, itself a bitmap, against an array
	// chunk and a bitmap chunk.
	f.Add([]byte{4, 0, 0, 20, 5, 0, 0, 255, 5, 8, 0, 255, 5, 16, 0, 255}, []byte{4, 0, 0, 255, 4, 8, 0, 255, 4, 16, 0, 255, 5, 4, 0, 255})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		s, u := fuzzSet(a), fuzzSet(b)
		checkRanks(t, s, u)
		checkRanks(t, u, s)
	})
}

// checkLeafSummary compares UnionRanks over parts with its definition: the
// pairwise Union fold, and every part's AppendIntersectRanks against that
// union, concatenated in part order after whatever dst already carried. It
// also checks owned against the containers the union does not share with
// a part.
func checkLeafSummary(t *testing.T, parts []Set) {
	t.Helper()
	cs := make([]*Compact, len(parts))
	var fold *Compact
	for i, p := range parts {
		cs[i] = FromSet(p)
		fold = fold.Union(cs[i])
	}
	want := []uint32{99}
	for _, c := range cs {
		want = fold.AppendIntersectRanks(c, want)
	}
	u, got, owned := UnionRanks(cs, []uint32{99})
	if !u.Equal(fold) {
		t.Fatalf("union of %d parts: %d cells in %d chunks, fold %d in %d",
			len(parts), u.Len(), u.NumChunks(), fold.Len(), fold.NumChunks())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ranks of %d parts: got %d %v, want %d %v",
			len(parts), len(got)-1, head(got), len(want)-1, head(want))
	}
	if w := ownedBytes(u, cs); owned != w {
		t.Fatalf("owned = %d bytes, want %d", owned, w)
	}
	// The union must own its fresh containers: another call reuses the
	// scratch bitmap and must leave u as it was.
	UnionRanks(scratchProbe, nil)
	if !u.Equal(fold) {
		t.Fatalf("union changed under a later call: it aliases the scratch")
	}
}

// scratchProbe shares chunk 0 among all three parts, so its union walks
// every word of the scratch bitmap.
var scratchProbe = []*Compact{FromSet(New(3, 1<<chunkBits|3)), FromSet(denseChunkSet(0, 5000)), FromSet(denseChunkSet(0, 7000))}

// ownedBytes is UnionRanks' owned by its definition: nothing when u is one
// of the parts, else u's keys and headers plus every container no part
// holds (same backing array or bitmap), whose arrays must be exact-size.
func ownedBytes(u *Compact, parts []*Compact) int64 {
	if slices.Contains(parts, u) {
		return 0
	}
	same := func(a, b *container) bool {
		if a.bm != nil || b.bm != nil {
			return a.bm == b.bm
		}
		return &a.arr[0] == &b.arr[0]
	}
	bytes := int64(len(u.keys)) * (8 + containerHeaderBytes)
	for i, key := range u.keys {
		shared := false
		for _, p := range parts {
			if j, ok := slices.BinarySearch(p.keys, key); ok && same(&u.cts[i], &p.cts[j]) {
				shared = true
			}
		}
		if ct := &u.cts[i]; !shared {
			if ct.bm == nil && cap(ct.arr) != len(ct.arr) {
				return -1
			}
			bytes += ct.payloadBytes()
		}
	}
	return bytes
}

// fuzzLeaf splits data into 1–31 parts: data[0] picks the count, then
// every 5-byte record gives one FuzzSetOps record (the last four bytes)
// to the part its first byte names. A part no record names is empty.
func fuzzLeaf(data []byte) []Set {
	if len(data) == 0 {
		return []Set{nil}
	}
	k := int(data[0])%31 + 1
	recs := make([][]byte, k)
	for i := 1; i+4 < len(data); i += 5 {
		p := int(data[i]) % k
		recs[p] = append(recs[p], data[i+1:i+5]...)
	}
	parts := make([]Set, k)
	for i, r := range recs {
		parts[i] = fuzzSet(r)
	}
	return parts
}

func TestUnionRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	bitmapA := denseChunkSet(1, 6000)
	cases := []struct {
		name  string
		parts []Set
	}{
		{"no parts", nil},
		{"one part", []Set{randomSet(rng, 500, 3<<chunkBits)}},
		{"empty parts around one", []Set{nil, randomSet(rng, 500, 3<<chunkBits), {}}},
		{"all empty", []Set{nil, {}}},
		{"disjoint chunks alias", []Set{New(1, 2), New(1<<chunkBits | 5), New(7<<chunkBits | 9)}},
		{"shared arrays stay an array", []Set{New(1, 3, 5), New(2, 3, 4), New(5, 6, 1<<chunkBits)}},
		{"shared arrays cross into a bitmap", []Set{denseChunkSet(2, 3000), every(denseChunkSet(2, 9000), 2)}},
		{"bitmap part", []Set{bitmapA, New(1<<chunkBits | 2), randomSet(rng, 300, 3<<chunkBits)}},
		{"two bitmap parts", []Set{bitmapA, denseChunkSet(1, 9000), nil}},
		{"identical parts", []Set{New(4, 8, 15, 16, 23, 42), New(4, 8, 15, 16, 23, 42)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkLeafSummary(t, c.parts) })
	}
	for trial := range 60 {
		parts := make([]Set, 1+rng.Intn(31))
		for i := range parts {
			switch rng.Intn(4) {
			case 0:
			case 1:
				parts[i] = denseChunkSet(uint64(rng.Intn(3)), 4200+rng.Intn(3000))
			default:
				parts[i] = clusteredSet(rng, 1+rng.Intn(3), 1+rng.Intn(3000))
			}
		}
		t.Run(fmt.Sprint("random ", trial), func(t *testing.T) { checkLeafSummary(t, parts) })
	}
}

// every returns every step-th cell of s.
func every(s Set, step int) Set {
	var out Set
	for i := 0; i < len(s); i += step {
		out = append(out, s[i])
	}
	return out
}

// FuzzLeafSummary fuzzes UnionRanks — a DITS-L leaf's one-pass summary —
// against the Union fold and the per-part rank intersections it replaces.
func FuzzLeafSummary(f *testing.F) {
	// A chunk one part holds (chunks 0 and 1) beside one both hold.
	f.Add([]byte{1, 0, 0, 0, 16, 3, 1, 1, 0, 16, 3, 0, 2, 0, 0, 1, 1, 2, 0, 8, 1})
	// Three arrays of one chunk whose union crosses 4,096 cells.
	f.Add([]byte{2, 0, 0, 0, 0, 255, 1, 0, 32, 0, 255, 2, 0, 64, 0, 255})
	// A bitmap part beside an array part in the same chunk.
	f.Add([]byte{1, 0, 3, 0, 0, 255, 0, 3, 32, 0, 255, 0, 3, 64, 0, 255, 1, 3, 16, 0, 20})
	// An empty part between two that share a chunk.
	f.Add([]byte{2, 0, 0, 0, 5, 4, 2, 0, 0, 9, 4})
	// Two shared chunks in turn over the same bitmap words.
	f.Add([]byte{1, 0, 0, 0, 0, 2, 0, 1, 0, 0, 0, 1, 0, 0, 40, 2, 1, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLeafSummary(t, fuzzLeaf(data))
	})
}

package cellset

import (
	"math/rand"
	"slices"
	"testing"
)

// checkRanks compares s.AppendIntersectRanks(u) with its definition over
// the flat sets: the index in s of every cell u also holds, ascending,
// appended after whatever dst already carried.
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
}

func head(r []uint32) []uint32 { return r[:min(len(r), 12)] }

func TestAppendIntersectRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	every := func(s Set, step int) Set {
		var out Set
		for i := 0; i < len(s); i += step {
			out = append(out, s[i])
		}
		return out
	}
	sparse := randomSet(rng, 900, 3<<chunkBits) // arrays over three chunks
	bitmapA := denseChunkSet(1, 6000)           // chunk 1 is a bitmap
	bitmapB := denseChunkSet(1, 9000).Union(New(5<<chunkBits | 3))
	wide := randomSet(rng, 3000, 1<<chunkBits) // one long array chunk
	cases := []struct {
		name string
		s, u Set
	}{
		{"array x array", sparse, sparse.Union(randomSet(rng, 900, 3<<chunkBits))},
		{"long rank side gallops", wide, every(wide, 40).Union(New(1, 2, 1<<chunkBits-1))},
		{"long probe side gallops", every(wide, 40), wide},
		{"gallop runs off the end", New(1, 2, 3, 4, 5, 6, 7, 8, 9), New(9000)},
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

// FuzzIntersectRanks fuzzes the rank kernel against its flat definition
// with FuzzSetOps's decoder, which reaches array and bitmap containers and
// chunk-boundary cells on either side.
func FuzzIntersectRanks(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5}, []byte{0, 0, 2, 5})
	f.Add([]byte{1, 255, 255, 255, 2, 0, 0, 9}, []byte{1, 255, 0, 200})
	f.Add([]byte{}, []byte{3, 1, 0, 50})
	// One chunk past the bitmap threshold against a thin array.
	f.Add([]byte{2, 0, 0, 255, 2, 8, 0, 255, 2, 16, 0, 255, 2, 24, 0, 255, 2, 32, 0, 255}, []byte{2, 9, 7, 0, 3, 0, 0, 1})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		s, u := fuzzSet(a), fuzzSet(b)
		checkRanks(t, s, u)
		checkRanks(t, u, s)
	})
}

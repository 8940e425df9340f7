package cellset

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
)

// UnionRanks is the k-way union of cs together with the rank in it of
// every input cell: it returns u = cs[0] ∪ … ∪ cs[k-1] and where extended
// by, for each input in order and each of its cells ascending, that cell's
// index in u.Set() — the concatenation of u.AppendIntersectRanks(cs[i])
// over i. owned is the part of u.MemoryBytes() that no input shares. A
// DITS-L leaf builds its union summary and its posting lists from this one
// call. Nil inputs are empty sets; u must hold fewer than 2^32 cells.
//
// Every chunk of every input is visited once. A chunk one input holds is
// aliased, as Union does, and its ranks are a run. A chunk several inputs
// hold is ORed into one scratch bitmap (the many-way union of Roaring,
// Lemire et al., SPE 2016) whose per-word popcount prefix gives each input
// cell its rank, and is canonicalised once, into an exact-size array or a
// fresh bitmap. The cost is O(Σ|cs[i]|) plus the bitmap words a shared
// chunk occupies, where folding Union and intersecting each input against
// the result costs O(k·|u|).
func UnionRanks(cs []*Compact, where []uint32) (u *Compact, ranks []uint32, owned int64) {
	s := unionScratchPool.Get().(*unionScratch)
	defer unionScratchPool.Put(s)
	s.refs, s.cur = s.refs[:0], s.cur[:0]
	start, total, held := len(where), 0, 0
	for i, c := range cs {
		s.cur = append(s.cur, start+total)
		if c.Len() == 0 {
			continue
		}
		u, held, total = c, held+1, total+c.n
		for j, key := range c.keys {
			s.refs = append(s.refs, chunkRef{key: key, in: i, ct: j})
		}
	}
	where = slices.Grow(where, total)[:start+total]
	if held <= 1 {
		// At most one input has cells: it is the union, and its ranks are
		// its own positions.
		for i := range total {
			where[start+i] = uint32(i)
		}
		if u == nil {
			u = &Compact{}
		}
		return u, where, 0
	}
	// Each input's chunks stay in key order under the sort, since an input
	// holds a key at most once, so every input's ranks fill its span of
	// where front to back.
	slices.SortFunc(s.refs, func(a, b chunkRef) int { return cmp.Compare(a.key, b.key) })
	chunks := 0
	for g, r := range s.refs {
		if g == 0 || r.key != s.refs[g-1].key {
			chunks++
		}
	}
	u = &Compact{keys: make([]uint64, 0, chunks), cts: make([]container, 0, chunks)}
	for g := 0; g < len(s.refs); {
		h := g + 1
		for h < len(s.refs) && s.refs[h].key == s.refs[g].key {
			h++
		}
		var ct container
		if h == g+1 {
			r := s.refs[g]
			ct = cs[r.in].cts[r.ct]
			dst := where[s.cur[r.in]:][:ct.n]
			s.cur[r.in] += ct.n
			for i := range dst {
				dst[i] = uint32(u.n + i)
			}
		} else {
			ct = s.orChunk(cs, s.refs[g:h], uint32(u.n), where)
			owned += ct.payloadBytes()
		}
		u.push(s.refs[g].key, ct)
		g = h
	}
	owned += int64(chunks) * (8 + containerHeaderBytes)
	return u, where, owned
}

// chunkRef names chunk ct of input in, under key.
type chunkRef struct {
	key    uint64
	in, ct int
}

// unionScratch is UnionRanks' working memory, pooled: the chunk list, the
// per-input write offsets into where, and the shared-chunk bitmap with its
// popcount prefix. bm and occ are all zero between calls.
type unionScratch struct {
	refs   []chunkRef
	cur    []int
	bm     bitmap
	occ    [bitmapWords / 64]uint64 // bit w set: bm[w] may be non-zero
	prefix [bitmapWords]uint32      // set bits of bm in the words before w
}

var unionScratchPool = sync.Pool{New: func() any { return new(unionScratch) }}

// orChunk unions the containers group names — one key, held by several
// inputs — writes each input cell's rank (base plus its index in the
// union) into where at that input's offset, and returns the canonical
// union container. Its passes over the bitmap visit only the words occ
// marks, so a sparse chunk costs its cells, not the chunk's 1,024 words.
// It leaves s.bm and s.occ zero.
func (s *unionScratch) orChunk(cs []*Compact, group []chunkRef, base uint32, where []uint32) container {
	for _, r := range group {
		ct := &cs[r.in].cts[r.ct]
		if ct.bm != nil {
			for w, x := range ct.bm {
				s.bm[w] |= x
			}
			for i := range s.occ {
				s.occ[i] = ^uint64(0)
			}
			continue
		}
		for _, v := range ct.arr {
			s.bm[v>>6] |= 1 << (v & 63)
			s.occ[v>>12] |= 1 << (v >> 6 & 63)
		}
	}
	n := uint32(0)
	for i, o := range s.occ {
		for ; o != 0; o &= o - 1 {
			w := i<<6 | bits.TrailingZeros64(o)
			s.prefix[w] = n
			n += uint32(bits.OnesCount64(s.bm[w]))
		}
	}
	for _, r := range group {
		ct := &cs[r.in].cts[r.ct]
		dst := where[s.cur[r.in]:][:ct.n]
		s.cur[r.in] += ct.n
		if ct.bm != nil {
			j := 0
			for w, x := range ct.bm {
				for ; x != 0; x &= x - 1 {
					dst[j] = base + s.prefix[w] + uint32(bits.OnesCount64(s.bm[w]&(x&-x-1)))
					j++
				}
			}
			continue
		}
		for j, v := range ct.arr {
			w := v >> 6
			dst[j] = base + s.prefix[w] + uint32(bits.OnesCount64(s.bm[w]&(1<<(v&63)-1)))
		}
	}
	var out container
	if n > arrayMaxLen {
		bm := s.bm
		out = container{bm: &bm, n: int(n)}
		s.bm = bitmap{}
	} else {
		arr := make([]uint16, n)
		for i, o := range s.occ {
			for ; o != 0; o &= o - 1 {
				w := i<<6 | bits.TrailingZeros64(o)
				j := s.prefix[w]
				for x := s.bm[w]; x != 0; x &= x - 1 {
					arr[j] = uint16(w<<6 | bits.TrailingZeros64(x))
					j++
				}
				s.bm[w] = 0
			}
		}
		out = container{arr: arr, n: int(n)}
	}
	s.occ = [bitmapWords / 64]uint64{}
	return out
}

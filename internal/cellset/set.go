// Package cellset implements the cell-based dataset representation of the
// paper (Definition 5): a spatial dataset reduced to the sorted set of
// z-order cell IDs its points occupy. All of OJSP's overlap computation and
// CJSP's coverage/marginal-gain computation happens on these sets.
package cellset

import (
	"math/bits"
	"slices"

	"dits/internal/geo"
)

// Set is a cell-based dataset: a strictly increasing slice of z-order cell
// IDs. The sorted-unique invariant makes intersection and union linear
// merges and keeps results deterministic.
type Set []uint64

// New builds a Set from arbitrary (possibly duplicated, unsorted) cell IDs.
func New(ids ...uint64) Set {
	s := make(Set, len(ids))
	copy(s, ids)
	return s.normalize()
}

// Normalize turns ids into a Set in place — sorted, duplicates dropped —
// sparing New's copy. The caller hands ids over: it is reordered and the
// result aliases it.
func Normalize(ids []uint64) Set {
	return Set(ids).normalize()
}

// FromPoints builds the cell-based dataset S_{D,Cθ} of the given points
// under grid g.
func FromPoints(g geo.Grid, pts []geo.Point) Set {
	s := make(Set, len(pts))
	for i, p := range pts {
		s[i] = g.CellID(p)
	}
	return s.normalize()
}

// radixMin is the length from which normalize radix-sorts: below it the
// counting passes cost more than a comparison sort.
const radixMin = 64

// normalize sorts s and removes duplicates in place.
func (s Set) normalize() Set {
	if len(s) < 2 {
		return s
	}
	if len(s) < radixMin {
		slices.Sort(s)
	} else {
		radixSort(s)
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// radixSort sorts s with an LSD radix over the bytes that vary among its
// IDs, the scheme sortWords uses: a set gridded from one region shares its
// high bytes, so it takes two or three passes, not eight. The passes move
// the IDs between s and a scratch slice; s holds the result at the end.
func radixSort(s Set) {
	var diff uint64
	for _, c := range s {
		diff |= c ^ s[0]
	}
	src, dst := s, make(Set, len(s))
	for sh := uint(0); sh < uint(bits.Len64(diff)); sh += 8 {
		if diff>>sh&0xff == 0 {
			continue
		}
		var count [256]int
		for _, c := range src {
			count[c>>sh&0xff]++
		}
		pos := 0
		for i, n := range count {
			count[i], pos = pos, pos+n
		}
		for _, c := range src {
			d := c >> sh & 0xff
			dst[count[d]] = c
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// Len returns the number of cells, the spatial coverage |S_D| of the set.
func (s Set) Len() int { return len(s) }

// IsEmpty reports whether the set has no cells.
func (s Set) IsEmpty() bool { return len(s) == 0 }

// Contains reports whether cell c is in the set.
func (s Set) Contains(c uint64) bool {
	_, ok := slices.BinarySearch(s, c)
	return ok
}

// IntersectCount returns |s ∩ t|, the overlap measure of OJSP
// (Definition 10), without materializing the intersection.
func (s Set) IntersectCount(t Set) int {
	// Merge the shorter into the longer with galloping when sizes are very
	// skewed; plain linear merge otherwise.
	if len(s) > len(t) {
		s, t = t, s
	}
	if len(s) == 0 {
		return 0
	}
	if len(t)/len(s) >= 32 {
		return gallopIntersectCount(s, t)
	}
	n, i, j := 0, 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			n++
			i++
			j++
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// gallopIntersectCount counts the intersection of a small set s against a
// much larger set t using exponential + binary search.
func gallopIntersectCount(s, t Set) int {
	n, lo := 0, 0
	for _, c := range s {
		// Exponential probe from lo.
		hi, step := lo, 1
		for hi < len(t) && t[hi] < c {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		// The probe loop stopped either past the end or at t[hi] >= c;
		// widen the window by one so a hit at t[hi] itself is found.
		hi++
		if hi > len(t) {
			hi = len(t)
		}
		idx, found := slices.BinarySearch(t[lo:hi], c)
		lo += idx
		if found {
			n++
			lo++
		}
		if lo >= len(t) {
			break
		}
	}
	return n
}

// Union returns s ∪ t as a new Set.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		default:
			out = append(out, t[j])
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// MarginalGain returns g(t, s) = |t ∪ s| − |s|: the number of cells t adds
// on top of s (Equation 3 with s playing the accumulated result set).
func (s Set) MarginalGain(t Set) int {
	return len(t) - s.IntersectCount(t)
}

// Bounds returns the MBR, in grid-coordinate space, spanned by the set's
// cells: [minX,maxX]×[minY,maxY] inclusive. ok is false for an empty set.
func (s Set) Bounds() (minX, minY, maxX, maxY uint32, ok bool) {
	if len(s) == 0 {
		return 0, 0, 0, 0, false
	}
	minX, minY = ^uint32(0), ^uint32(0)
	for _, c := range s {
		x, y := geo.ZDecode(c)
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	return minX, minY, maxX, maxY, true
}

// FilterRect returns the subset of s whose cells fall inside the
// grid-coordinate span of rect r under g. It implements the query
// clipping of the second distribution strategy in §VI-A: only the portion
// of the query intersecting a candidate source's MBR is shipped. It walks
// s by chunk, as Compact.ClipRect does: a run of cells whose chunk lies
// wholly inside or outside the span is kept or skipped whole, and only the
// runs across its boundary are decoded cell by cell.
func (s Set) FilterRect(g geo.Grid, r geo.Rect) Set {
	if r.IsEmpty() {
		return nil
	}
	sp := spanOf(g, r)
	out := make(Set, 0, len(s))
	for i := 0; i < len(s); {
		j := chunkEnd(s, i)
		switch sp.classify(s[i] >> chunkBits) {
		case chunkInside:
			out = append(out, s[i:j]...)
		case chunkAcross:
			for _, c := range s[i:j] {
				if sp.contains(c) {
					out = append(out, c)
				}
			}
		}
		i = j
	}
	return out
}

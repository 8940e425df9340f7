package cellset

import (
	"cmp"
	"math"
	"slices"

	"dits/internal/geo"
)

// DistIndex answers repeated "is this set within δ of q?" questions against
// a set q — the access pattern of connectivity verification, where
// FindConnectSet probes many candidate datasets against the same query
// cells. It groups q's cells into square buckets of side max(⌈δ⌉, 1): any
// pair of cells within δ lies in the same or an adjacent bucket, so each
// probe inspects at most a 3×3 bucket neighborhood.
//
// The layout is flat: the decoded cells sit in one slice grouped by bucket,
// the occupied buckets' keys are sorted row-major, and keys[i]'s cells are
// pts[off[i]:off[i+1]]. A probe is one binary search per bucket row, and a
// cell outside the indexed bounding box grown by δ is rejected before any
// search. A built index is read-only under Connected / ConnectedCompact /
// NearRect, so any number of goroutines may probe it; Add and AddCompact
// rebuild the layout and need exclusive access.
type DistIndex struct {
	d2   float64
	side uint32 // bucket side in cell units
	// Bounding box of the indexed cells grown by side: a cell outside it
	// has no indexed cell within δ. int64, so growing never wraps.
	loX, loY, hiX, hiY int64
	keys               []bucketKey
	off                []int32
	pts                []bucketed
}

// bucketKey uses int64 coordinates: grid coordinates span the full uint32
// range, so with side 1 a bucket coordinate plus its neighbor needs 33
// bits — int32 keys silently collapsed distant cells into the same bucket
// above 2^31, and two coordinates packed into one uint64 would wrap the
// same way. Keys order row-major: by y, then x.
type bucketKey struct{ y, x int64 }

func (k bucketKey) less(o bucketKey) bool {
	return k.y < o.y || (k.y == o.y && k.x < o.x)
}

// bucketed is an indexed cell together with its bucket coordinates, kept
// so that ordering and grouping the cells divides once per cell.
type bucketed struct{ by, bx, x, y uint32 }

func (p bucketed) key() bucketKey { return bucketKey{int64(p.by), int64(p.bx)} }

// cmpBucket orders cells row-major by bucket; the order inside a bucket is
// irrelevant to every reader.
func cmpBucket(a, b bucketed) int {
	if a.by != b.by {
		return cmp.Compare(a.by, b.by)
	}
	return cmp.Compare(a.bx, b.bx)
}

// NewDistIndex builds the index over q for threshold delta. A nil index is
// returned for an empty q or a negative delta: Connected on it is false.
func NewDistIndex(q Set, delta float64) *DistIndex {
	if len(q) == 0 || delta < 0 || math.IsNaN(delta) {
		return nil
	}
	// At a side of the grid's full width all buckets are already adjacent;
	// clamping there keeps the conversion defined for an infinite delta.
	side := uint32(math.Ceil(math.Min(delta, math.MaxUint32)))
	if side < 1 {
		side = 1
	}
	ix := &DistIndex{d2: delta * delta, side: side}
	pts := make([]bucketed, len(q))
	for i, c := range q {
		pts[i] = ix.bucket(c)
	}
	slices.SortFunc(pts, cmpBucket)
	ix.layout(pts)
	return ix
}

// Add extends the indexed set with more cells: the merge step of the
// paper's CoverageSearch grows the query side without re-sorting what is
// already indexed.
func (ix *DistIndex) Add(cells Set) {
	if ix == nil || len(cells) == 0 {
		return
	}
	extra := make([]bucketed, len(cells))
	for i, c := range cells {
		extra[i] = ix.bucket(c)
	}
	ix.merge(extra)
}

// AddCompact extends the indexed set with the cells of a container set.
func (ix *DistIndex) AddCompact(cells *Compact) {
	if ix == nil || cells.Len() == 0 {
		return
	}
	extra := make([]bucketed, 0, cells.Len())
	cells.ForEach(func(c uint64) bool {
		extra = append(extra, ix.bucket(c))
		return true
	})
	ix.merge(extra)
}

// bucket decodes cell c and places it in its bucket.
func (ix *DistIndex) bucket(c uint64) bucketed {
	x, y := geo.ZDecode(c)
	return bucketed{by: y / ix.side, bx: x / ix.side, x: x, y: y}
}

// merge folds extra into the index: a sorted merge of the two
// bucket-ordered runs, then a fresh layout over the result.
func (ix *DistIndex) merge(extra []bucketed) {
	slices.SortFunc(extra, cmpBucket)
	old := ix.pts
	pts := make([]bucketed, 0, len(old)+len(extra))
	i, j := 0, 0
	for i < len(old) && j < len(extra) {
		if cmpBucket(extra[j], old[i]) < 0 {
			pts = append(pts, extra[j])
			j++
		} else {
			pts = append(pts, old[i])
			i++
		}
	}
	pts = append(append(pts, old[i:]...), extra[j:]...)
	ix.layout(pts)
}

// layout derives the bucket keys, their offsets and the grown bounding box
// from pts, which must be non-empty and ordered by cmpBucket.
func (ix *DistIndex) layout(pts []bucketed) {
	nb := 1
	for i := 1; i < len(pts); i++ {
		if cmpBucket(pts[i], pts[i-1]) != 0 {
			nb++
		}
	}
	keys := make([]bucketKey, 0, nb)
	off := make([]int32, 0, nb+1)
	minX, minY, maxX, maxY := pts[0].x, pts[0].y, pts[0].x, pts[0].y
	for i, p := range pts {
		if i == 0 || cmpBucket(p, pts[i-1]) != 0 {
			keys = append(keys, p.key())
			off = append(off, int32(i))
		}
		minX, maxX = min(minX, p.x), max(maxX, p.x)
		minY, maxY = min(minY, p.y), max(maxY, p.y)
	}
	ix.keys, ix.off, ix.pts = keys, append(off, int32(len(pts))), pts
	ix.loX, ix.hiX = int64(minX)-int64(ix.side), int64(maxX)+int64(ix.side)
	ix.loY, ix.hiY = int64(minY)-int64(ix.side), int64(maxY)+int64(ix.side)
}

// Connected reports whether any cell of s lies within delta of an indexed
// cell — exactly the directly-connected relation of Definition 7.
func (ix *DistIndex) Connected(s Set) bool {
	if ix == nil {
		return false
	}
	for _, c := range s {
		if ix.probe(c) {
			return true
		}
	}
	return false
}

// ConnectedCompact is Connected over a container set.
func (ix *DistIndex) ConnectedCompact(s *Compact) bool {
	if ix == nil || s.Len() == 0 {
		return false
	}
	hit := false
	s.ForEach(func(c uint64) bool {
		hit = ix.probe(c)
		return !hit
	})
	return hit
}

// NearRect reports whether r, a rectangle in grid coordinates, overlaps the
// 3×3 neighborhood of some occupied bucket. When it does not, no cell
// inside r is within delta of an indexed cell, so a caller holding a
// candidate's MBR can skip decoding its cells altogether. True promises
// nothing: the cell-exact answer is Connected's.
func (ix *DistIndex) NearRect(r geo.Rect) bool {
	if ix == nil || !(r.MinX <= r.MaxX && r.MinY <= r.MaxY) {
		return false
	}
	if r.MaxX < float64(ix.loX) || r.MinX > float64(ix.hiX) ||
		r.MaxY < float64(ix.loY) || r.MinY > float64(ix.hiY) {
		return false
	}
	// Clamped to the grown box (which r intersects) and floored at 0, where
	// cells start, every conversion is in range and the truncating division
	// is a floor.
	bucket := func(v float64, lo, hi int64) int64 {
		return int64(math.Max(math.Min(math.Max(v, float64(lo)), float64(hi)), 0)) / int64(ix.side)
	}
	x0, x1 := bucket(r.MinX, ix.loX, ix.hiX)-1, bucket(r.MaxX, ix.loX, ix.hiX)+1
	y0, y1 := bucket(r.MinY, ix.loY, ix.hiY)-1, bucket(r.MaxY, ix.loY, ix.hiY)+1
	for i := ix.lowerBound(bucketKey{y0, x0}); i < len(ix.keys) && ix.keys[i].y <= y1; {
		switch k := ix.keys[i]; {
		case k.x < x0:
			i = ix.lowerBound(bucketKey{k.y, x0})
		case k.x <= x1:
			return true
		default:
			i = ix.lowerBound(bucketKey{k.y + 1, x0})
		}
	}
	return false
}

// lowerBound returns the position of the first key not ordered before k.
func (ix *DistIndex) lowerBound(k bucketKey) int {
	lo, hi := 0, len(ix.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.keys[mid].less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// probe reports whether cell c is within delta of any indexed cell.
func (ix *DistIndex) probe(c uint64) bool {
	x, y := geo.ZDecode(c)
	if int64(x) < ix.loX || int64(x) > ix.hiX || int64(y) < ix.loY || int64(y) > ix.hiY {
		return false
	}
	bx := int64(x / ix.side)
	by := int64(y / ix.side)
	fx, fy := float64(x), float64(y)
	for row := by - 1; row <= by+1; row++ {
		// The row's buckets bx-1..bx+1 are adjacent in the key order.
		for i := ix.lowerBound(bucketKey{row, bx - 1}); i < len(ix.keys); i++ {
			if k := ix.keys[i]; k.y != row || k.x > bx+1 {
				break
			}
			for _, p := range ix.pts[ix.off[i]:ix.off[i+1]] {
				ddx := float64(p.x) - fx
				ddy := float64(p.y) - fy
				if ddx*ddx+ddy*ddy <= ix.d2 {
					return true
				}
			}
		}
	}
	return false
}

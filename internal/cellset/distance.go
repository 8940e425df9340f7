package cellset

import (
	"cmp"
	"math"
	"slices"

	"dits/internal/geo"
)

// Dist2 returns the square of the cell-based dataset distance of
// Definition 6: the minimum Euclidean distance, in grid-coordinate units,
// between any cell of s and any cell of t. It returns +Inf when either set
// is empty.
//
// The implementation sorts both sets by x coordinate and sweeps with an
// early-exit window, which is far cheaper than the naive |s|·|t| scan on
// spatially separated sets while remaining exact.
func Dist2(s, t Set) float64 {
	if len(s) == 0 || len(t) == 0 {
		return math.Inf(1)
	}
	a := decodeSorted(s)
	b := decodeSorted(t)
	best := math.Inf(1)
	j0 := 0
	for _, p := range a {
		// Points of b left of p by more than sqrt(best) can never win for
		// p — nor for any later p, since a is sorted by x ascending.
		for j0 < len(b) {
			dx := float64(p.x) - float64(b[j0].x)
			if dx > 0 && dx*dx > best {
				j0++
				continue
			}
			break
		}
		for j := j0; j < len(b); j++ {
			dx := float64(b[j].x) - float64(p.x)
			if dx > 0 && dx*dx > best {
				break // b is sorted by x; everything further is worse
			}
			dy := float64(b[j].y) - float64(p.y)
			if d := dx*dx + dy*dy; d < best {
				best = d
				if best == 0 {
					return 0
				}
			}
		}
	}
	return best
}

type cellXY struct{ x, y uint32 }

func decodeSorted(s Set) []cellXY {
	out := make([]cellXY, len(s))
	for i, c := range s {
		x, y := geo.ZDecode(c)
		out[i] = cellXY{x, y}
	}
	slices.SortFunc(out, func(a, b cellXY) int {
		if a.x != b.x {
			return cmp.Compare(a.x, b.x)
		}
		return cmp.Compare(a.y, b.y)
	})
	return out
}

// WithinDist reports whether Dist(s, t) <= delta, i.e. whether the two
// cell-based datasets are directly connected under threshold δ
// (Definition 7). It indexes the smaller set by Morton block — 2^L × 2^L
// cells, 2^L ≥ ⌈δ⌉ — together with the blocks near it, then walks the larger
// set's sorted cells against the near blocks: cells in far blocks are jumped
// over, and a cell in a near block is measured against the 3×3 blocks
// around it, stopping at the first pair within δ. The per-call index build
// keeps this an honest pairwise kernel; callers that repeatedly test
// against the same set should build one DistIndex instead.
func WithinDist(s, t Set, delta float64) bool {
	if len(s) == 0 || len(t) == 0 || delta < 0 {
		return false
	}
	if len(s) > len(t) {
		s, t = t, s
	}
	return NewDistIndex(s, delta).Connected(t)
}

// DistNaive is the textbook O(|s|·|t|) pairwise minimum used as the oracle
// in tests and by the SG baseline, mirroring how a plain greedy
// implementation without index support computes Definition 6.
func DistNaive(s, t Set) float64 {
	if len(s) == 0 || len(t) == 0 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for _, a := range s {
		for _, b := range t {
			if d := geo.CellDist2(a, b); d < best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}

package cellset

import (
	"math"

	"dits/internal/geo"
)

// WithinDist reports whether DistNaive(s, t) <= delta, i.e. whether the two
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

// DistNaive is the cell-based dataset distance of Definition 6: the
// minimum Euclidean distance, in grid-coordinate units, between any cell
// of s and any cell of t, or +Inf when either set is empty. It is the
// textbook O(|s|·|t|) pairwise minimum used as the oracle in tests and by
// the SG baseline, mirroring how a plain greedy implementation without
// index support computes it.
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

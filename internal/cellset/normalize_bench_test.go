package cellset_test

import (
	"slices"
	"testing"

	"dits/internal/cellset"
	"dits/internal/geo"
	"dits/internal/workload"
)

// BenchmarkNormalize grids every dataset of the cjsp-small corpus (scale
// 0.05, data seed 1, world grid at θ = 12) and normalizes its cell IDs in
// point order, the way FromPoints and the gateway hand them over; beside
// it, the comparison sort Normalize used before its radix pass.
func BenchmarkNormalize(b *testing.B) {
	g := geo.NewGrid(12, geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90})
	var sets [][]uint64
	n := 0
	for _, src := range workload.GenerateAll(0.05, 1) {
		for _, d := range src.Datasets {
			ids := make([]uint64, len(d.Points))
			for i, p := range d.Points {
				ids[i] = g.CellID(p)
			}
			sets, n = append(sets, ids), n+len(ids)
		}
	}
	buf := make([]uint64, n)
	for _, bc := range []struct {
		name      string
		normalize func([]uint64) []uint64
	}{
		{"normalize", func(ids []uint64) []uint64 { return cellset.Normalize(ids) }},
		{"pdqsort", func(ids []uint64) []uint64 { slices.Sort(ids); return slices.Compact(ids) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportMetric(float64(n), "ids/op")
			for i := 0; i < b.N; i++ {
				at := buf
				for _, ids := range sets {
					copy(at, ids)
					bc.normalize(at[:len(ids)])
					at = at[len(ids):]
				}
			}
		})
	}
}

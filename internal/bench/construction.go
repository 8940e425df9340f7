package bench

import (
	"dits/internal/index/dits"
	"dits/internal/index/josie"
	"dits/internal/index/quadtree"
	"dits/internal/index/rtree"
	"dits/internal/index/sts3"
	"dits/internal/workload"
)

// indexNames is the column order of the Fig. 8, 21, 22 comparisons.
var indexNames = []string{"DITS-L", "QuadTree", "Rtree", "STS3", "Josie"}

// buildTimed constructs each of the five indexes over sd and reports the
// build time (ms) and estimated memory (bytes), keyed by index name.
// The built DITS-L index is returned for reuse.
func buildTimed(sd sourceData, f int) (times map[string]float64, mems map[string]int64, local *dits.Local) {
	times = make(map[string]float64)
	mems = make(map[string]int64)

	times["DITS-L"] = timeIt(func() { local = dits.Build(sd.grid, sd.nodes, f) })
	mems["DITS-L"] = local.MemoryBytes()

	var qt *quadtree.Tree
	times["QuadTree"] = timeIt(func() { qt = quadtree.Build(sd.grid.Theta, sd.nodes) })
	mems["QuadTree"] = qt.MemoryBytes()

	var rt *rtree.Tree
	times["Rtree"] = timeIt(func() { rt = rtree.Build(8, sd.nodes) })
	mems["Rtree"] = rt.MemoryBytes()

	var st *sts3.Index
	times["STS3"] = timeIt(func() { st = sts3.Build(sd.nodes) })
	mems["STS3"] = st.MemoryBytes()

	var jo *josie.Index
	times["Josie"] = timeIt(func() { jo = josie.Build(sd.nodes) })
	mems["Josie"] = jo.MemoryBytes()
	return times, mems, local
}

// Fig8 regenerates the index-construction comparison: build time and memory
// of the five indexes on every source as θ increases.
func Fig8(cfg Config) []Table {
	timeTable := Table{
		ID:     "fig8",
		Title:  "Index construction time (ms) vs θ",
		Header: append([]string{"source", "θ"}, indexNames...),
		Notes: []string{
			"Paper shape: Josie slowest overall (posting-list sorting); STS3 fastest at low θ;",
			"DITS-L at or below Rtree (median split vs quadratic split).",
		},
	}
	memTable := Table{
		ID:     "fig8",
		Title:  "Index memory (MB) vs θ",
		Header: append([]string{"source", "θ"}, indexNames...),
		Notes: []string{
			"Paper shape: QuadTree largest (node hierarchy over N cells), STS3 smallest.",
		},
	}
	for _, spec := range workload.Specs() {
		for _, theta := range ParamTheta {
			sd := cache.gridded(spec, cfg, theta)
			times, mems, _ := buildTimed(sd, cfg.F)
			trow := []string{spec.Name, itoa(theta)}
			mrow := []string{spec.Name, itoa(theta)}
			for _, name := range indexNames {
				trow = append(trow, ms(times[name]))
				mrow = append(mrow, mb(mems[name]))
			}
			timeTable.Rows = append(timeTable.Rows, trow)
			memTable.Rows = append(memTable.Rows, mrow)
		}
	}
	return []Table{timeTable, memTable}
}

package bench

import (
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
	"dits/internal/search/overlap"
)

// Ablation quantifies the design choices DESIGN.md calls out, beyond the
// paper's own baselines:
//
//   - the Lemma 2 leaf bound inside OverlapSearch (vs verifying every
//     MBR-intersecting leaf); a leaf keeps no Lemma 3 summary, so this
//     arm isolates Lemma 2 only,
//   - the spatial merge strategy of CoverageSearch (vs SG+DITS, which is
//     exactly CoverageSearch without the merge),
//   - the Morton-block connectivity kernel (DistIndex) behind FindConnectSet
//     (vs the naive pairwise distance the plain SG baseline embodies).
func Ablation(cfg Config) []Table {
	t := Table{
		ID:     "ablation",
		Title:  "Ablation of DITS design choices (total ms over q queries)",
		Header: []string{"source", "variant", "time"},
		Notes: []string{
			"overlap±bounds isolates Lemma 2 only (a leaf keeps no Lemma 3 summary);",
			"coverage merge vs no-merge isolates the spatial merge strategy (Algorithm 3",
			"line 11); SG shows life without the index.",
		},
	}
	for _, spec := range coverageSpecs(cfg) {
		sd := cache.gridded(spec, cfg, cfg.Theta)
		var idx *dits.Local
		topDown := timeIt(func() { idx = dits.Build(sd.grid, sd.nodes, cfg.F) })
		qs := queries(sd, cfg.Q, cfg.Seed)

		// Construction strategy: §V-A's O(n log n) top-down median split
		// vs the classical agglomerative bottom-up merge it rejects.
		if len(sd.nodes) <= dits.BuildBottomUpMaxDatasets {
			bottomUp := timeIt(func() { dits.BuildBottomUp(sd.grid, sd.nodes, cfg.F) })
			t.Rows = append(t.Rows,
				[]string{spec.Name, "build: top-down (Alg. 1)", ms(topDown)},
				[]string{spec.Name, "build: bottom-up agglomerative", ms(bottomUp)},
			)
		}

		withBounds := &overlap.DITSSearcher{Index: idx}
		noBounds := &overlap.DITSSearcher{Index: idx, DisableBounds: true}
		t.Rows = append(t.Rows,
			[]string{spec.Name, "overlap: bounds on", ms(timeIt(func() {
				for _, q := range qs {
					withBounds.TopK(q, cfg.K)
				}
			}))},
			[]string{spec.Name, "overlap: bounds off", ms(timeIt(func() {
				for _, q := range qs {
					noBounds.TopK(q, cfg.K)
				}
			}))},
		)

		merge := &coverage.DITSSearcher{Index: idx}
		noMerge := &coverage.SGDITS{Index: idx}
		naive := &coverage.SG{Nodes: sd.nodes}
		t.Rows = append(t.Rows,
			[]string{spec.Name, "coverage: merge strategy", ms(timeIt(func() {
				for _, q := range qs {
					merge.Search(q, cfg.Delta, cfg.K)
				}
			}))},
			[]string{spec.Name, "coverage: no merge (SG+DITS)", ms(timeIt(func() {
				for _, q := range qs {
					noMerge.Search(q, cfg.Delta, cfg.K)
				}
			}))},
			[]string{spec.Name, "coverage: no index (SG)", ms(timeIt(func() {
				for _, q := range qs {
					naive.Search(q, cfg.Delta, cfg.K)
				}
			}))},
		)
	}
	return []Table{t}
}

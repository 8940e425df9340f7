package dits_test

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"dits/internal/dataset"
	"dits/internal/index/dits"
	"dits/internal/index/ditsfile"
)

// TestLeafKernelsAgree: the three passes behind OverlapCounts — posting
// ranks (leaves at rest), the Inv map (mutated leaves) and the per-child
// chunk merge (dense queries) — must all return the brute-force counts over
// plain sets, on a heap-built index, on the same index served from an
// mmap'd snapshot, after inserts that split leaves, after deletes, and with
// every leaf forced onto the map.
func TestLeafKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	nodes := dits.RandomNodes(rng, 240, 8)
	// Two datasets past 4096 cells, so some leaf unions hold bitmap chunks.
	for i, at := range []int{20, 120} {
		big := dits.DensePatch(at, at, 70)
		big.ID = 500 + i
		nodes = append(nodes, big)
	}
	queries := map[string][]*dataset.Node{
		"sparse": dits.RandomNodes(rng, 12, 8),
		"dense":  {dits.DensePatch(10, 10, 60), dits.DensePatch(100, 90, 40)},
	}
	// A query that carries only the container form: mutated leaves cannot
	// walk its cells and fall back to the chunk merge.
	bare := *dits.DensePatch(30, 30, 15)
	flat := bare.Cells
	bare.Cells = nil

	var scratch dits.LeafScratch
	check := func(label string, l *dits.Local) {
		t.Helper()
		verify := func(kind string, q dits.LeafQuery, leaf *dits.TreeNode, want []int) {
			if got := dits.AllCounts(leaf, q, &scratch); !slices.Equal(got, want) {
				t.Fatalf("%s, %s query: OverlapCounts = %v, brute force = %v", label, kind, got, want)
			}
		}
		l.Root.VisitLeaves(func(leaf *dits.TreeNode) {
			for kind, qs := range queries {
				for _, q := range qs {
					verify(kind, dits.NewLeafQuery(q), leaf, dits.BruteCounts(leaf, q.Cells))
				}
			}
			verify("container-only", dits.NewLeafQuery(&bare), leaf, dits.BruteCounts(leaf, flat))
		})
	}

	heap := dits.Build(dits.TestGrid(8), nodes, 10)
	check("heap-built", heap)

	path := filepath.Join(t.TempDir(), "idx.dits")
	if err := ditsfile.WriteFile(path, heap); err != nil {
		t.Fatal(err)
	}
	r, err := ditsfile.Open(path, ditsfile.Options{MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check("mmap", r.Index())
	if n := r.LoadErrors(); n != 0 {
		t.Fatalf("%d leaves failed to load", n)
	}

	// Mutate both: the touched leaves switch to the map, split leaves come
	// back at rest with fresh postings, untouched ones keep theirs.
	for _, l := range []*dits.Local{heap, r.Index()} {
		for i, nd := range dits.RandomNodes(rng, 80, 8) {
			nd.ID = 1000 + i
			if err := l.Insert(nd); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("heap-built after inserts", heap)
	check("mmap after inserts", r.Index())
	for _, l := range []*dits.Local{heap, r.Index()} {
		for id := 0; id < 60; id++ {
			if err := l.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	check("heap-built after deletes", heap)
	check("mmap after deletes", r.Index())

	heap.Root.VisitLeaves(func(leaf *dits.TreeNode) { leaf.ForceInvMap() })
	check("every leaf on the map", heap)
}

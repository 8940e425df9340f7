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

// TestLeafKernelsAgree: OverlapCounts' one rank pass — the query's probe
// over the leaf union, then the posting lists — must return, for sparse
// and dense queries alike, the counts of two oracles: brute force over
// plain sets, and the per-child container IntersectCount. It must do so
// on a heap-built index, on the same index served from an mmap'd
// snapshot, and on both after inserts that split leaves, after deletes
// and after updates.
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

	var scratch dits.LeafScratch
	check := func(label string, l *dits.Local) {
		t.Helper()
		l.Root.VisitLeaves(func(leaf *dits.TreeNode) {
			for kind, qs := range queries {
				for _, q := range qs {
					want := dits.BruteCounts(leaf, q.Cells)
					perChild := make([]int, len(leaf.Children))
					for i, d := range leaf.Children {
						perChild[i] = q.CompactCells().IntersectCount(d.CompactCells())
					}
					if !slices.Equal(perChild, want) {
						t.Fatalf("%s, %s query: per-child IntersectCount = %v, brute force = %v", label, kind, perChild, want)
					}
					if got := dits.AllCounts(leaf, q.CompactCells(), &scratch); !slices.Equal(got, want) {
						t.Fatalf("%s, %s query: OverlapCounts = %v, brute force = %v", label, kind, got, want)
					}
				}
			}
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

	// Mutate both: touched leaves rebuild their postings, split leaves come
	// back with fresh ones, untouched ones keep theirs.
	both := []*dits.Local{heap, r.Index()}
	for _, l := range both {
		for i, nd := range dits.RandomNodes(rng, 80, 8) {
			nd.ID = 1000 + i
			if err := l.Insert(nd); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("heap-built after inserts", heap)
	check("mmap after inserts", r.Index())
	for _, l := range both {
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
	// Updates in place: dataset 500 shrinks from a bitmap-sized patch to a
	// few cells, dataset 1050 grows into one.
	updates := dits.RandomNodes(rng, 40, 8)
	updates[0].ID = 500
	for i, nd := range updates[1:] {
		nd.ID = 1000 + i
	}
	updates = append(updates, dits.DensePatch(60, 60, 70))
	updates[len(updates)-1].ID = 1050
	for _, l := range both {
		for _, nd := range updates {
			if err := l.Update(dataset.NewNodeFromCells(nd.ID, "", nd.Cells)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	check("heap-built after updates", heap)
	check("mmap after updates", r.Index())
}

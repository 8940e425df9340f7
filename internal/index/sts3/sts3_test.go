package sts3

import (
	"math/rand"
	"slices"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

func randomNodes(rng *rand.Rand, n int) []*dataset.Node {
	nodes := make([]*dataset.Node, 0, n)
	for i := 0; i < n; i++ {
		m := 1 + rng.Intn(15)
		ids := make([]uint64, m)
		for j := range ids {
			ids[j] = geo.ZEncode(uint32(rng.Intn(64)), uint32(rng.Intn(64)))
		}
		nodes = append(nodes, dataset.NewNodeFromCells(i, "", cellset.New(ids...)))
	}
	return nodes
}

func oracleCounts(nodes []*dataset.Node, q cellset.Set) map[int]int {
	counts := make(map[int]int)
	for _, n := range nodes {
		if c := n.Cells.IntersectCount(q); c > 0 {
			counts[n.ID] = c
		}
	}
	return counts
}

func TestOverlapCountsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes := randomNodes(rng, 200)
	idx := Build(nodes)
	for trial := 0; trial < 100; trial++ {
		q := randomNodes(rng, 1)[0].Cells
		want := oracleCounts(nodes, q)
		for variant, got := range map[string]map[int]int{
			"pairwise": idx.OverlapCounts(q),
		} {
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d candidates, want %d", trial, variant, len(got), len(want))
			}
			for id, c := range want {
				if got[id] != c {
					t.Fatalf("trial %d %s: dataset %d count %d, want %d", trial, variant, id, got[id], c)
				}
			}
		}
	}
}

func TestMutationsKeepOracleAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nodes := randomNodes(rng, 80)
	idx := Build(nodes[:50])
	live := map[int]*dataset.Node{}
	for _, n := range nodes[:50] {
		live[n.ID] = n
	}
	for step := 0; step < 300; step++ {
		switch rng.Intn(3) {
		case 0:
			n := randomNodes(rng, 1)[0]
			n.ID = 1000 + step
			idx.Insert(n)
			live[n.ID] = n
		case 1:
			if len(live) == 0 {
				continue
			}
			id := anyKey(rng, live)
			idx.Delete(id)
			delete(live, id)
		default:
			if len(live) == 0 {
				continue
			}
			id := anyKey(rng, live)
			repl := randomNodes(rng, 1)[0]
			repl.ID = id
			idx.Update(repl)
			live[id] = repl
		}
	}
	if len(idx.cells) != len(live) {
		t.Fatalf("%d datasets indexed, want %d", len(idx.cells), len(live))
	}
	var all []*dataset.Node
	for _, n := range live {
		all = append(all, n)
	}
	q := randomNodes(rng, 1)[0].Cells
	got := idx.OverlapCounts(q)
	want := oracleCounts(all, q)
	if len(got) != len(want) {
		t.Fatalf("after mutations: %d candidates, want %d", len(got), len(want))
	}
	for id, c := range want {
		if got[id] != c {
			t.Fatalf("after mutations: dataset %d count %d, want %d", id, got[id], c)
		}
	}
}

func TestAccessors(t *testing.T) {
	n := dataset.NewNodeFromCells(7, "seven", cellset.New(1, 2, 3))
	idx := Build([]*dataset.Node{n, nil})
	if len(idx.cells) != 1 {
		t.Errorf("%d datasets indexed, want 1 (nil skipped)", len(idx.cells))
	}
	if idx.Name(7) != "seven" {
		t.Error("Name not stored")
	}
	if !slices.Equal(idx.cells[7], n.Cells) {
		t.Error("Cells not stored")
	}
	if idx.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
	idx.Delete(42) // unknown: no-op
	if len(idx.cells) != 1 {
		t.Error("Delete(unknown) should not change size")
	}
}

func anyKey(rng *rand.Rand, m map[int]*dataset.Node) int {
	n := rng.Intn(len(m))
	for id := range m {
		if n == 0 {
			return id
		}
		n--
	}
	panic("unreachable")
}

package dits

import (
	"math/rand"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/workload"
)

func TestInsertBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := Build(testGrid(6), randomNodes(rng, 20, 6), 4)
	for i := 0; i < 100; i++ {
		nd := randomNodes(rng, 1, 6)[0]
		nd.ID = 1000 + i
		if err := l.Insert(nd); err != nil {
			t.Fatal(err)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if l.Len() != 120 {
		t.Errorf("Len = %d, want 120", l.Len())
	}
}

func TestInsertErrors(t *testing.T) {
	l := Build(testGrid(4), nil, 4)
	if err := l.Insert(nil); err == nil {
		t.Error("Insert(nil) should error")
	}
	nd := dataset.NewNodeFromCells(1, "", cellset.New(1))
	if err := l.Insert(nd); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert(nd); err == nil {
		t.Error("duplicate Insert should error")
	}
}

func TestInsertIntoEmptyIndex(t *testing.T) {
	l := Build(testGrid(4), nil, 2)
	for i := 0; i < 10; i++ {
		nd := dataset.NewNodeFromCells(i, "", cellset.New(geo.ZEncode(uint32(i), uint32(i))))
		if err := l.Insert(nd); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 10 {
		t.Errorf("Len = %d, want 10", l.Len())
	}
}

func TestDeleteBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nodes := randomNodes(rng, 100, 6)
	l := Build(testGrid(6), nodes, 4)
	perm := rng.Perm(100)
	for i, idx := range perm {
		if err := l.Delete(nodes[idx].ID); err != nil {
			t.Fatal(err)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
	}
	if l.Len() != 0 {
		t.Errorf("Len = %d after deleting all, want 0", l.Len())
	}
	if err := l.Delete(12345); err == nil {
		t.Error("Delete of unknown ID should error")
	}
}

func TestUpdateBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nodes := randomNodes(rng, 50, 6)
	l := Build(testGrid(6), nodes, 4)
	for i := 0; i < 100; i++ {
		id := rng.Intn(50)
		nd := randomNodes(rng, 1, 6)[0]
		nd.ID = id
		if err := l.Update(nd); err != nil {
			t.Fatal(err)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("after update %d: %v", i, err)
		}
		if got := l.Get(id); got != nd {
			t.Fatal("Get should return the replacement node")
		}
	}
	if err := l.Update(dataset.NewNodeFromCells(999, "", cellset.New(1))); err == nil {
		t.Error("Update of unknown ID should error")
	}
	if err := l.Update(nil); err == nil {
		t.Error("Update(nil) should error")
	}
}

func TestMixedUpdateSequenceProperty(t *testing.T) {
	// Random interleavings of insert/update/delete must keep the tree's
	// invariants and its contents in sync with a reference map.
	rng := rand.New(rand.NewSource(7))
	l := Build(testGrid(6), nil, 3)
	ref := make(map[int]*dataset.Node)
	nextID := 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(ref) == 0: // insert
			nd := randomNodes(rng, 1, 6)[0]
			nd.ID = nextID
			nextID++
			if err := l.Insert(nd); err != nil {
				t.Fatal(err)
			}
			ref[nd.ID] = nd
		case op == 1: // delete random existing
			id := anyKey(rng, ref)
			if err := l.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(ref, id)
		default: // update random existing
			id := anyKey(rng, ref)
			nd := randomNodes(rng, 1, 6)[0]
			nd.ID = id
			if err := l.Update(nd); err != nil {
				t.Fatal(err)
			}
			ref[id] = nd
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if l.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, ref = %d", step, l.Len(), len(ref))
		}
	}
	for id, nd := range ref {
		if got := l.Get(id); got != nd {
			t.Fatalf("Get(%d) = %v, want %v", id, got, nd)
		}
	}
}

// BenchmarkLeafMutation times one insert and one delete of a Transit-shaped
// dataset in an index built over the Transit source at scale 0.05 — the
// leaf maintenance a mutation pays on top of the tree walk.
func BenchmarkLeafMutation(b *testing.B) {
	spec, err := workload.SpecByName("Transit")
	if err != nil {
		b.Fatal(err)
	}
	src := workload.Generate(spec, 0.05, 1)
	g := geo.NewGrid(12, src.Bounds())
	l := Build(g, src.Nodes(g), DefaultLeafCapacity)
	fresh := workload.Generate(spec, 0.05, 2).Nodes(g)
	for i, nd := range fresh {
		nd.ID = 1<<24 + i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd := fresh[i%len(fresh)]
		if err := l.Insert(nd); err != nil {
			b.Fatal(err)
		}
		if err := l.Delete(nd.ID); err != nil {
			b.Fatal(err)
		}
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

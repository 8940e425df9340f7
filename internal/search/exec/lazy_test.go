package exec

import (
	"math/rand"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
)

// lazyCells draws up to n cells from a small universe spread over three
// chunks, so sets built from it overlap often and gains tie.
func lazyCells(rng *rand.Rand, n int) cellset.Set {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(rng.Intn(3))<<16 | uint64(rng.Intn(96))
	}
	return cellset.New(ids...)
}

// lazySubset draws a random subset of s.
func lazySubset(rng *rand.Rand, s cellset.Set) cellset.Set {
	var out []uint64
	for _, c := range s {
		if rng.Intn(2) == 0 {
			out = append(out, c)
		}
	}
	return cellset.New(out...)
}

// lazyConnected is the connectivity of the fuzz below, δ = 1 on the cell
// IDs: some cell of nd is, or neighbours, a cell of merged.
func lazyConnected(merged *cellset.Compact, nd *dataset.Node) bool {
	flat := merged.Set()
	for _, c := range nd.Cells {
		if flat.Contains(c) || flat.Contains(c+1) || (c > 0 && flat.Contains(c-1)) {
			return true
		}
	}
	return false
}

// FuzzLazyPickMatchesScan drives a LazyPicker through a random history —
// absorbs of empty, covered, partly new, picked and unconnected cells,
// forgotten bounds, random exclusions — and checks every pick, gain and
// merged set against pickBestSeq over the union absorbed so far. Before
// each pick the connected set is extended as a walk would, with every
// dataset connected to the union. The candidate pool holds duplicates under
// other IDs (gains tie), subsets of the base (zero gain) and a dense one
// (bitmap containers).
func FuzzLazyPickMatchesScan(f *testing.F) {
	f.Add(int64(1), []byte{0, 8, 5, 3, 2, 13, 4, 21, 6, 5, 5, 5})
	f.Add(int64(2), []byte{9, 1, 1, 1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add(int64(3), []byte{24, 0, 2, 3, 4, 6, 7, 255, 128, 64, 32, 16})
	f.Add(int64(4), []byte{16, 25, 4, 4, 4, 5, 6, 5, 0, 5})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) == 0 {
			return
		}
		script = script[:min(len(script), 49)] // a step costs up to a millisecond
		rng := rand.New(rand.NewSource(seed))
		base := lazyCells(rng, 1+rng.Intn(24))
		var pool []*dataset.Node
		for _, id := range rng.Perm(100)[:1+int(script[0])%32] {
			var cells cellset.Set
			switch k := rng.Intn(8); {
			case k == 0 && len(pool) > 0:
				cells = pool[rng.Intn(len(pool))].Cells // a duplicate: tied gains
			case k == 1:
				cells = lazySubset(rng, base) // zero gain
			case k == 2 && rng.Intn(4) == 0:
				ids := make([]uint64, 4200)
				for i := range ids {
					ids[i] = 3<<16 | uint64(rng.Intn(1<<16))
				}
				cells = cellset.New(ids...) // bitmap containers
			default:
				cells = lazyCells(rng, 1+rng.Intn(20))
			}
			if nd := dataset.NewNodeFromCells(id, "", cells); nd != nil {
				pool = append(pool, nd)
			}
		}

		var p LazyPicker
		p.Reset(cellset.FromSet(base))
		union := cellset.FromSet(base)
		absorb := func(added cellset.Set) {
			p.Absorb(cellset.FromSet(added))
			union = union.Union(cellset.FromSet(added))
		}
		var last *dataset.Node // the last pick
		for step, op := range script[1:] {
			switch op % 8 {
			case 0:
				absorb(nil)
			case 1: // cells merged already
				absorb(lazySubset(rng, union.Set()))
			case 2: // some merged, some new
				absorb(lazySubset(rng, union.Set()).Union(lazyCells(rng, rng.Intn(12))))
			case 3, 4: // the last pick's cells, as the loops do
				if last != nil {
					absorb(last.Cells)
				}
			case 5: // any dataset's cells, as another source's pick
				if len(pool) > 0 {
					absorb(pool[rng.Intn(len(pool))].Cells)
				}
			case 6: // the data changed: the connected set starts over
				p.Forget()
			}
			var found []*dataset.Node
			for _, nd := range pool {
				if !p.Connected.Has(nd.ID) && lazyConnected(union, nd) {
					found = append(found, nd)
				}
			}
			p.Connected.Add(found)
			excluded := map[int]bool{}
			for _, nd := range p.Connected.Nodes {
				if rng.Intn(4) < int(op>>6) {
					excluded[nd.ID] = true
				}
			}
			isExcluded := func(id int) bool { return excluded[id] }
			wantNode, wantGain := pickBestSeq(p.Connected.Nodes, isExcluded, union)
			gotNode, gotGain := p.Pick(isExcluded)
			if gotNode != wantNode || gotGain != wantGain {
				t.Fatalf("step %d (op %d): lazy pick %v/%d, scan %v/%d", step, op, nodeID(gotNode), gotGain, nodeID(wantNode), wantGain)
			}
			if !p.Merged().Equal(union) {
				t.Fatalf("step %d (op %d): merged %d cells, union %d", step, op, p.Merged().Len(), union.Len())
			}
			last = gotNode
		}
	})
}

func nodeID(nd *dataset.Node) int {
	if nd == nil {
		return -1
	}
	return nd.ID
}

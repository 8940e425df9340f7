package federation

import (
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/index/dits"
	"dits/internal/transport"
)

// historyOp is one step of a generated history: a mutation, a query or a
// re-registration.
type historyOp struct {
	kind  string // put, delete, overlap, batch, coverage, reregister
	src   string
	id    int
	cells cellset.Set
	qs    []BatchQuery // overlap: one query; batch: several
	delta float64
}

// historyFed is one federation a history runs on: quadrantServers with a
// and b mutable. asked counts the OJSP calls (single or batched) each
// source took.
type historyFed struct {
	center  *Center
	servers []*SourceServer
	mu      sync.Mutex
	asked   map[string]int
}

func newHistoryFed(t *testing.T, rc *cache.Cache) *historyFed {
	f := &historyFed{servers: quadrantServers(t, "a", "b"), asked: map[string]int{}}
	f.center = NewCenter(worldGrid(), DefaultOptions())
	f.center.SetCache(rc)
	for _, srv := range f.servers {
		f.register(srv)
	}
	return f
}

// register registers srv over a peer that counts its OJSP calls.
func (f *historyFed) register(srv *SourceServer) {
	f.center.Register(srv.Summary(), &funcPeer{
		inner: &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: f.center.Metrics},
		call: func(ctx context.Context, inner transport.Peer, method string, req, resp any) error {
			if method == MethodOverlap || method == MethodSearchBatch {
				f.mu.Lock()
				f.asked[srv.Name]++
				f.mu.Unlock()
			}
			return inner.Call(ctx, method, req, resp)
		},
	})
}

// randomBlock is a w×h block of cells anywhere in the world grid.
func randomBlock(rng *rand.Rand, lo, hi int) cellset.Set {
	side := 1 << theta
	w, h := lo+rng.Intn(hi-lo+1), lo+rng.Intn(hi-lo+1)
	return cellBlock(rng.Intn(side-w), rng.Intn(side-h), w, h)
}

// missBlock is a small block among the datasets of src's quadrant
// (quadrantNodes) that meets no query of the pool, or a random block when
// twenty tries find none: a write there leaves the extent and every pool
// query's answer as they were.
func missBlock(rng *rand.Rand, src string, pool []BatchQuery) cellset.Set {
	s := int(src[0] - 'a')
	for range 20 {
		b := cellBlock(16+64*(s%2)+rng.Intn(20), 16+64*(s/2)+rng.Intn(14), 1+rng.Intn(3), 1+rng.Intn(3))
		if !slices.ContainsFunc(pool, func(q BatchQuery) bool { return q.Cells.IntersectCount(b) > 0 }) {
			return b
		}
	}
	return randomBlock(rng, 2, 8)
}

// genHistory generates n steps over a pool of ten queries, so queries
// repeat. It opens by asking every pool query once, so the cache holds
// answers of a at version 0; the one re-registration, a quarter of the
// way in, rebuilds a at version 0 with its first extent and new IDs, which
// only the registration generation tells from those answers. Half the
// puts land where no pool query looks (missBlock).
func genHistory(rng *rand.Rand, n int) []historyOp {
	pool := make([]BatchQuery, 10)
	for i := range pool {
		q := randomBlock(rng, 4, 16)
		for j := rng.Intn(3); j > 0; j-- {
			q = q.Union(randomBlock(rng, 4, 16))
		}
		pool[i] = BatchQuery{Cells: q, K: 1 + rng.Intn(8)}
	}
	ids := map[string][]int{"a": {0, 1, 2, 3, 4, 50, 51, 7000, 7001}, "b": {100, 101, 102, 103, 104, 150, 151}}
	var ops []historyOp
	for i := 0; i < n; i++ {
		src := string(rune('a' + rng.Intn(2)))
		id := ids[src][rng.Intn(len(ids[src]))]
		switch r := rng.Intn(100); {
		case i < len(pool):
			ops = append(ops, historyOp{kind: "overlap", qs: pool[i : i+1]})
		case i == n/4:
			ops = append(ops, historyOp{kind: "reregister", src: "a"})
		case r < 10:
			ops = append(ops, historyOp{kind: "put", src: src, id: id, cells: randomBlock(rng, 2, 8)})
		case r < 20:
			ops = append(ops, historyOp{kind: "put", src: src, id: id, cells: missBlock(rng, src, pool)})
		case r < 28:
			ops = append(ops, historyOp{kind: "delete", src: src, id: id})
		case r < 63:
			ops = append(ops, historyOp{kind: "overlap", qs: []BatchQuery{pool[rng.Intn(len(pool))]}})
		case r < 80:
			qs := make([]BatchQuery, 2+rng.Intn(4))
			for j := range qs {
				qs[j] = pool[rng.Intn(len(pool))]
			}
			ops = append(ops, historyOp{kind: "batch", qs: qs})
		default:
			q := pool[rng.Intn(len(pool))]
			ops = append(ops, historyOp{kind: "coverage", qs: []BatchQuery{{Cells: q.Cells, K: 1 + q.K%3}}, delta: float64(rng.Intn(3) * 3)})
		}
	}
	return ops
}

// apply runs one step and returns its outcome, for comparison across
// federations.
func (f *historyFed) apply(t *testing.T, op historyOp) any {
	t.Helper()
	ctx := context.Background()
	var out any
	var err error
	switch op.kind {
	case "put":
		out, err = f.center.PutDataset(ctx, op.src, op.id, "put", op.cells)
	case "delete":
		out, err = f.center.DeleteDataset(ctx, op.src, op.id)
	case "overlap":
		out, err = f.center.OverlapSearch(ctx, op.qs[0].Cells, op.qs[0].K)
	case "batch":
		out, err = f.center.OverlapSearchBatch(ctx, op.qs)
	case "coverage":
		out, err = f.center.CoverageSearch(ctx, op.qs[0].Cells, op.delta, op.qs[0].K)
	case "reregister":
		srv := NewSourceServerWithGrid(op.src, dits.Build(worldGrid(), quadrantNodes(0, 7000), 4))
		enableIngest(t, srv)
		f.register(srv)
	}
	if err != nil {
		t.Fatalf("%s: %v", op.kind, err)
	}
	return out
}

// TestCacheHistoryMatchesUncached runs seeded histories of puts, deletes,
// single and batched OJSP, CJSP and one re-registration on a cached and an
// uncached federation: every answer must be equal, the cache must have
// saved messages, and some of them must be saved across a write: a
// repeated single query that the uncached federation sends to a source,
// and the cached one does not, although the source took a write since the
// query last ran.
func TestCacheHistoryMatchesUncached(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			cached, plain := newHistoryFed(t, cache.New(256)), newHistoryFed(t, nil)
			lastRun := map[[sha256.Size]byte]map[string]uint64{} // per query, the versions it last ran at
			acrossWrites := 0
			for i, op := range genHistory(rand.New(rand.NewSource(seed)), 200) {
				before, beforePlain := maps.Clone(cached.asked), maps.Clone(plain.asked)
				if got, want := cached.apply(t, op), plain.apply(t, op); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s): cached %+v, uncached %+v", i, op.kind, got, want)
				}
				if op.kind != "overlap" && op.kind != "batch" {
					continue
				}
				vers := cached.center.SourceVersions()
				for _, q := range op.qs {
					d := queryDigest('O', uint64(q.K), 0, q.Cells)
					if last, ok := lastRun[d]; ok && op.kind == "overlap" {
						for src, v := range vers {
							if last[src] < v && plain.asked[src] > beforePlain[src] && cached.asked[src] == before[src] {
								acrossWrites++
							}
						}
					}
					lastRun[d] = vers
				}
			}
			sent := func(c *Center) int64 { return calls(c.Metrics, MethodOverlap) + calls(c.Metrics, MethodSearchBatch) }
			if st := cached.center.Cache().Stats(); st.Hits == 0 || sent(cached.center) >= sent(plain.center) {
				t.Fatalf("the cache saved nothing: %+v, %d OJSP messages against %d", st, sent(cached.center), sent(plain.center))
			}
			if acrossWrites == 0 {
				t.Fatal("no cached answer outlived a write at its source")
			}
			t.Logf("%d cached answers outlived a write at their source", acrossWrites)
		})
	}
}

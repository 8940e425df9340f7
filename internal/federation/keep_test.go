package federation

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/index/dits"
	"dits/internal/transport"
)

// keepServers builds the keep-rule federation's sources. a is mutable: its
// top-3 for the 10×10 block at (20, 20) is 10 (overlap 12), 20 (8) and
// 30 (4), with 40 (2) below them, and 50 and 60 stretch its extent over
// every put the cases make. b, read-only, is a candidate of the query
// beside it.
func keepServers(t *testing.T) (a, b *SourceServer) {
	t.Helper()
	node := dataset.NewNodeFromCells
	a = NewSourceServerWithGrid("a", dits.Build(worldGrid(), []*dataset.Node{
		node(10, "", cellBlock(20, 20, 4, 3)),
		node(20, "", cellBlock(20, 23, 4, 2)),
		node(30, "", cellBlock(20, 25, 2, 2)),
		node(40, "", cellBlock(24, 23, 2, 1)),
		node(50, "", cellBlock(2, 2, 2, 2)),
		node(60, "", cellBlock(60, 60, 2, 2)),
	}, 4))
	enableIngest(t, a)
	b = NewSourceServerWithGrid("b", dits.Build(worldGrid(), []*dataset.Node{
		node(100, "", cellBlock(28, 28, 2, 2)),
		node(101, "", cellBlock(40, 40, 2, 2)),
	}, 4))
	return a, b
}

// registerCounted registers each server over a peer of its own metrics,
// so a test can tell which source a call went to.
func registerCounted(c *Center, servers ...*SourceServer) map[string]*transport.Metrics {
	met := map[string]*transport.Metrics{}
	for _, srv := range servers {
		met[srv.Name] = &transport.Metrics{}
		c.Register(srv.Summary(), &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: met[srv.Name]})
	}
	return met
}

// TestCacheKeepRule holds the boundaries of the rule that keeps a cached
// OJSP answer across a write at its source: a write that cannot change the
// source's top-k leaves the repeated query with no call to make, and one
// that can, or one the center cannot replay, sends exactly one call, to
// the written source. Either way the answer is the uncached one.
func TestCacheKeepRule(t *testing.T) {
	ctx := context.Background()
	put := func(id int, cells cellset.Set) func(*testing.T, *Center, *SourceServer) {
		return func(t *testing.T, c *Center, _ *SourceServer) {
			if _, err := c.PutDataset(ctx, "a", id, "put", cells); err != nil {
				t.Fatal(err)
			}
		}
	}
	del := func(id int) func(*testing.T, *Center, *SourceServer) {
		return func(t *testing.T, c *Center, _ *SourceServer) {
			if res, err := c.DeleteDataset(ctx, "a", id); err != nil || !res.Found {
				t.Fatalf("delete %d: %+v, %v", id, res, err)
			}
		}
	}
	row := func(n int) cellset.Set { return cellBlock(20, 29, n, 1) } // n cells of the query's last row
	for _, tc := range []struct {
		name  string
		k     int
		write func(*testing.T, *Center, *SourceServer)
		calls int64
	}{
		{"put far from the query", 3, put(70, cellBlock(50, 50, 3, 3)), 0},
		{"put overlapping below the k-th item", 3, put(70, row(3)), 0},
		{"tie with the k-th item at a larger ID", 3, put(70, row(4)), 0},
		{"delete outside the answer", 3, del(40), 0},
		{"put ranking in", 3, put(70, row(5)), 1},
		{"tie with the k-th item at a smaller ID", 3, put(25, row(4)), 1},
		{"put of an answer member", 3, put(20, cellBlock(50, 50, 3, 3)), 1},
		{"delete of an answer member", 3, del(30), 1},
		{"overlapping put into an answer of fewer than k items", 8, put(70, row(1)), 1},
		{"record-less note", 3, func(t *testing.T, c *Center, a *SourceServer) {
			// A write the center did not make, noted as a probe or a relay
			// notes one: nothing vouches for the version it skips.
			resp, err := a.handleDatasetPut(DatasetPutRequest{ID: 70, Name: "elsewhere", Cells: cellBlock(50, 50, 3, 3)})
			if err != nil {
				t.Fatal(err)
			}
			c.noteMutation(c.epoch.Load(), "a", resp)
		}, 1},
		{"log overrun", 3, func(t *testing.T, c *Center, a *SourceServer) {
			for range writeLogCap + 1 {
				put(70, cellBlock(50, 50, 3, 3))(t, c, a)
			}
		}, 1},
		{"re-registration", 3, func(t *testing.T, c *Center, a *SourceServer) {
			c.Register(a.Summary(), c.epoch.Load().members["a"].peer)
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := keepServers(t)
			c := cachedCenter(nil, DefaultOptions())
			met := registerCounted(c, a, b)
			q := cellBlock(20, 20, 10, 10)
			if _, err := c.OverlapSearch(ctx, q, tc.k); err != nil {
				t.Fatal(err)
			}
			extent := a.Summary().Rect
			tc.write(t, c, a)
			if a.Summary().Rect != extent {
				t.Fatal("the write moved a's extent, which re-keys a's answers by itself")
			}
			a0, b0 := calls(met["a"], MethodOverlap), calls(met["b"], MethodOverlap)
			got, err := c.OverlapSearch(ctx, q, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if n := calls(met["a"], MethodOverlap) - a0; n != tc.calls {
				t.Fatalf("the repeated query asked a %d times, want %d", n, tc.calls)
			}
			if n := calls(met["b"], MethodOverlap) - b0; n != 0 {
				t.Fatalf("the repeated query asked b %d times, want 0", n)
			}
			if want := uncachedOverlap(t, []*SourceServer{a, b}, q, tc.k); !reflect.DeepEqual(got, want) {
				t.Fatalf("answered %v, uncached %v", got, want)
			}
		})
	}
}

// FuzzKeepRule: a small source answers a random query (clipped to its
// extent, as the center sends it), then takes one random put or delete.
// Whenever the keep rule keeps the cached top-k, the source's fresh top-k
// must equal it.
func FuzzKeepRule(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(8), uint8(2))
	f.Add(int64(4), uint8(5), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, k, op uint8) {
		rng := rand.New(rand.NewSource(seed))
		block := func(lo, hi int) cellset.Set { // within a 40×40 area
			w, h := lo+rng.Intn(hi-lo+1), lo+rng.Intn(hi-lo+1)
			return cellBlock(rng.Intn(40-w), rng.Intn(40-h), w, h)
		}
		var nodes []*dataset.Node
		for id := range 12 {
			nodes = append(nodes, dataset.NewNodeFromCells(id, "", block(1, 8)))
		}
		srv := NewSourceServerWithGrid("a", dits.Build(worldGrid(), nodes, 4))
		enableIngest(t, srv)
		ctx := context.Background()
		q, kk := block(2, 16), 1+int(k%10)
		answer := func() []OverlapItem {
			clip := q.FilterRect(worldGrid(), srv.Summary().Rect)
			return srv.handleOverlap(ctx, OverlapRequest{Cells: clip, K: kk}).Results
		}
		cached, from := answer(), srv.DataVersion()
		w := write{id: rng.Intn(16)} // IDs 12–15 are new
		var err error
		var resp MutateResponse
		if op%2 == 0 {
			w.cells = block(1, 8)
			resp, err = srv.handleDatasetPut(DatasetPutRequest{ID: w.id, Name: "put", Cells: w.cells})
		} else {
			resp, err = srv.handleDatasetDelete(DatasetDeleteRequest{ID: w.id})
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.Version == from {
			return // a delete of an absent ID writes nothing
		}
		w.version = resp.Version
		l := new(writeLog)
		l.add(w)
		if !l.keeps(from, resp.Version, q, kk, cached) {
			return
		}
		if fresh := answer(); !slices.Equal(fresh, cached) {
			t.Fatalf("k=%d: the rule kept %v across write %+v, the source now answers %v", kk, cached, w, fresh)
		}
	})
}

package federation

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/index/dits"
	"dits/internal/transport"
)

// quadrantNodes is source s's five datasets, clustered in the s-th
// quadrant of the world grid, with IDs from base.
func quadrantNodes(s, base int) []*dataset.Node {
	x0, y0 := 16+64*(s%2), 16+64*(s/2)
	var nodes []*dataset.Node
	for i := 0; i < 5; i++ {
		nodes = append(nodes, dataset.NewNodeFromCells(base+i, "", cellBlock(x0+4*i, y0+3*i, 3+i, 4)))
	}
	return nodes
}

// quadrantServers builds sources a–d over quadrantNodes; the named ones
// get a durable store and take mutations.
func quadrantServers(t *testing.T, mutable ...string) []*SourceServer {
	t.Helper()
	var out []*SourceServer
	for s, name := range []string{"a", "b", "c", "d"} {
		srv := NewSourceServerWithGrid(name, dits.Build(worldGrid(), quadrantNodes(s, 100*s), 4))
		if slices.Contains(mutable, name) {
			enableIngest(t, srv)
		}
		out = append(out, srv)
	}
	return out
}

// quadrantQuery covers part of every quadrant's datasets: every source is
// a DITS-G candidate with a non-empty clip.
func quadrantQuery() cellset.Set {
	var q cellset.Set
	for s := 0; s < 4; s++ {
		q = q.Union(cellBlock(18+64*(s%2), 18+64*(s/2), 12, 10))
	}
	return q
}

// cachedCenter registers servers at a fresh center with a result cache.
func cachedCenter(servers []*SourceServer, opts Options) *Center {
	c := NewCenter(worldGrid(), opts)
	c.SetCache(cache.New(256))
	registerAll(c, servers)
	return c
}

// uncachedOverlap is the answer of a fresh center without a cache over the
// servers as they stand: the reference every cached answer must equal.
func uncachedOverlap(t *testing.T, servers []*SourceServer, q cellset.Set, k int) []SourceResult {
	t.Helper()
	c := NewCenter(worldGrid(), DefaultOptions())
	registerAll(c, servers)
	rs, err := c.OverlapSearch(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// countCalls runs fn and returns how many calls of method it sent.
func countCalls(t *testing.T, c *Center, method string, fn func() error) int64 {
	t.Helper()
	before := calls(c.Metrics, method)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return calls(c.Metrics, method) - before
}

// TestCachePutReasksOneSource: a put at one source re-keys only that
// source's answer, so a repeated query asks that source alone, by itself
// and inside a batch.
func TestCachePutReasksOneSource(t *testing.T) {
	servers := quadrantServers(t, "a")
	c := cachedCenter(servers, DefaultOptions())
	q, k := quadrantQuery(), 6
	ctx := context.Background()
	var got []SourceResult
	single := func() (err error) { got, err = c.OverlapSearch(ctx, q, k); return err }
	batch := func() error {
		rs, err := c.OverlapSearchBatch(ctx, []BatchQuery{{Cells: q, K: k}})
		if err == nil {
			got = rs[0]
		}
		return err
	}
	if n := countCalls(t, c, MethodOverlap, single); n != 4 {
		t.Fatalf("first query asked %d sources, want 4", n)
	}
	if n := countCalls(t, c, MethodOverlap, single); n != 0 {
		t.Fatalf("repeated query asked %d sources, want 0", n)
	}

	for i, ask := range []struct {
		method string
		fn     func() error
	}{{MethodOverlap, single}, {MethodSearchBatch, batch}} {
		if _, err := c.PutDataset(ctx, "a", 900+i, "put", cellBlock(20, 20, 6, 6)); err != nil {
			t.Fatal(err)
		}
		if n := countCalls(t, c, ask.method, ask.fn); n != 1 {
			t.Fatalf("after a put at a, %s went out %d times, want 1", ask.method, n)
		}
		if want := uncachedOverlap(t, servers, q, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("after a put at a, %s answered %v, uncached %v", ask.method, got, want)
		}
	}
}

// TestCacheExtentGrowthKeepsOtherSources: a put that grows one source's
// extent swaps the membership epoch, and the other sources' answers still
// come from the cache.
func TestCacheExtentGrowthKeepsOtherSources(t *testing.T) {
	servers := quadrantServers(t, "a")
	c := cachedCenter(servers, DefaultOptions())
	q, k := quadrantQuery(), 8
	ctx := context.Background()
	if _, err := c.OverlapSearch(ctx, q, k); err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	// a's datasets lie in the lower-left quadrant; this one reaches into d's.
	if _, err := c.PutDataset(ctx, "a", 999, "grown", cellBlock(84, 84, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if c.Generation() == gen {
		t.Fatal("the put did not grow a's extent")
	}
	hits := c.Cache().Stats().Hits
	var got []SourceResult
	n := countCalls(t, c, MethodOverlap, func() (err error) { got, err = c.OverlapSearch(ctx, q, k); return err })
	if n != 1 {
		t.Fatalf("after a's extent grew, the query asked %d sources, want 1", n)
	}
	if h := c.Cache().Stats().Hits - hits; h != 3 {
		t.Fatalf("after a's extent grew, %d of b, c and d answered from cache, want 3", h)
	}
	if want := uncachedOverlap(t, servers, q, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("answered %v, uncached %v", got, want)
	}
	if got[0].ID != 999 {
		t.Fatalf("top result %+v, want the grown dataset", got[0])
	}
}

// TestCacheReregisteredSourceIsAskedAgain: a source rebuilt at version 0
// with the same extent differs from its previous incarnation only in its
// registration generation, and that alone keeps the old answers out.
func TestCacheReregisteredSourceIsAskedAgain(t *testing.T) {
	servers := quadrantServers(t)
	c := cachedCenter(servers, DefaultOptions())
	q, k := quadrantQuery(), 20
	ctx := context.Background()
	if _, err := c.OverlapSearch(ctx, q, k); err != nil {
		t.Fatal(err)
	}
	old := servers[1]
	rebuilt := NewSourceServerWithGrid("b", dits.Build(worldGrid(), quadrantNodes(1, 5000), 4))
	if rebuilt.Summary() != old.Summary() || rebuilt.DataVersion() != 0 {
		t.Fatal("the rebuilt source must keep b's extent and start at version 0")
	}
	servers[1] = rebuilt
	registerAll(c, servers[1:2])

	var got []SourceResult
	if n := countCalls(t, c, MethodOverlap, func() (err error) { got, err = c.OverlapSearch(ctx, q, k); return err }); n != 1 {
		t.Fatalf("after b re-registered, the query asked %d sources, want 1", n)
	}
	if want := uncachedOverlap(t, servers, q, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("answered %v, uncached %v", got, want)
	}
	for _, r := range got {
		if r.Source == "b" && r.ID < 5000 {
			t.Fatalf("answer %+v comes from b's previous incarnation", r)
		}
	}
}

// TestCacheSkipFailedReasksRecoveredSource: under SkipFailed the survivors'
// answers are cached and the failed source's is not, so the next query asks
// the recovered source alone — single and batched alike.
func TestCacheSkipFailedReasksRecoveredSource(t *testing.T) {
	for _, method := range []string{MethodOverlap, MethodSearchBatch} {
		t.Run(method, func(t *testing.T) {
			servers := quadrantServers(t)
			c := NewCenter(worldGrid(), Options{GlobalFilter: true, ClipQuery: true, Sessions: true, OnSourceError: SkipFailed})
			c.SetCache(cache.New(256))
			registerAll(c, servers[:2])
			registerAll(c, servers[3:])
			c.Register(servers[2].Summary(), &recoveringPeer{
				inner:     &transport.InProc{Name: "c", Handler: servers[2].Handler(), Metrics: c.Metrics},
				failFirst: 1,
			})
			q, k := quadrantQuery(), 20
			ctx := context.Background()
			var got []SourceResult
			ask := func() (err error) {
				if method == MethodOverlap {
					got, err = c.OverlapSearch(ctx, q, k)
					return err
				}
				rs, err := c.OverlapSearchBatch(ctx, []BatchQuery{{Cells: q, K: k}})
				if err == nil {
					got = rs[0]
				}
				return err
			}
			countCalls(t, c, method, ask)
			for _, r := range got {
				if r.Source == "c" {
					t.Fatalf("c answered %+v while failing", r)
				}
			}
			if n := countCalls(t, c, method, ask); n != 1 {
				t.Fatalf("after c recovered, %s went out %d times, want 1", method, n)
			}
			if want := uncachedOverlap(t, servers, q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("answered %v, uncached %v", got, want)
			}
			if n := countCalls(t, c, method, ask); n != 0 {
				t.Fatalf("a third query sent %d messages, want 0", n)
			}
		})
	}
}

// TestCacheNoteFromPreviousIncarnationIsDropped: a mutation response whose
// call was issued before the source re-registered (or left) comes from an
// incarnation no key names any more; noting its version would make the
// monotonic guard swallow the new incarnation's first notes.
func TestCacheNoteFromPreviousIncarnationIsDropped(t *testing.T) {
	servers := quadrantServers(t)
	c := cachedCenter(servers, DefaultOptions())
	stale := c.epoch.Load()
	registerAll(c, servers[:1])
	c.noteMutation(stale, "a", MutateResponse{Version: 7, Summary: servers[0].Summary()})
	if v, ok := c.SourceVersions()["a"]; ok {
		t.Fatalf("a note from a's previous incarnation set its version to %d", v)
	}
	c.noteMutation(c.epoch.Load(), "a", MutateResponse{Version: 1, Summary: servers[0].Summary()})
	if v := c.SourceVersions()["a"]; v != 1 {
		t.Fatalf("the new incarnation's note left version %d, want 1", v)
	}
	pinned := c.epoch.Load()
	c.Unregister("b")
	c.noteMutation(pinned, "b", MutateResponse{Version: 3, Summary: servers[1].Summary()})
	if v, ok := c.SourceVersions()["b"]; ok {
		t.Fatalf("a note from departed b set its version to %d", v)
	}
}

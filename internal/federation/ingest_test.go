package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/search/coverage"
	"dits/internal/transport"
)

// buildMutableFederation is buildFederation with every source backed by a
// durable ingest store rooted in a per-test temp dir.
func buildMutableFederation(t *testing.T, rng *rand.Rand, m, perSource int, opts Options) (*Center, []*SourceServer) {
	t.Helper()
	center, _, servers := buildFederation(rng, m, perSource, opts)
	for _, srv := range servers {
		enableIngest(t, srv)
	}
	return center, servers
}

// enableIngest puts a durable store, bootstrapped from the server's index,
// behind srv.
func enableIngest(t *testing.T, srv *SourceServer) {
	t.Helper()
	idx := srv.Index
	st, err := ingest.Open(t.TempDir(), ingest.Options{
		Fsync:         ingest.FsyncNever,
		SnapshotEvery: -1,
		Bootstrap:     func() (*dits.Local, error) { return idx, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv.EnableIngest(st)
}

// cellsNear builds a small cell set clustered at (cx, cy).
func cellsNear(cx, cy, n int) cellset.Set {
	side := 1 << theta
	ids := make([]uint64, n)
	for j := range ids {
		x := clamp(cx+j%5, 0, side-1)
		y := clamp(cy+j/5, 0, side-1)
		ids[j] = geo.ZEncode(uint32(x), uint32(y))
	}
	return cellset.New(ids...)
}

// cellBlock is the w×h block of cells whose lower-left cell is (x0, y0).
func cellBlock(x0, y0, w, h int) cellset.Set {
	var ids []uint64
	for dx := 0; dx < w; dx++ {
		for dy := 0; dy < h; dy++ {
			ids = append(ids, geo.ZEncode(uint32(x0+dx), uint32(y0+dy)))
		}
	}
	return cellset.New(ids...)
}

func TestFederatedMutationInvalidatesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	center, servers := buildMutableFederation(t, rng, 3, 40, DefaultOptions())
	center.SetCache(cache.New(128))

	query := randomQuery(rng)
	before, err := center.OverlapSearch(context.Background(), query, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the cache and prove the second read hits it.
	if _, err := center.OverlapSearch(context.Background(), query, 5); err != nil {
		t.Fatal(err)
	}
	if hits := center.Cache().Stats().Hits; hits == 0 {
		t.Fatal("second identical query should hit the cache")
	}

	// Insert, at the lexicographically first source, a dataset that covers
	// the query exactly: it must dethrone every cached result.
	target := servers[0].Name
	res, err := center.PutDataset(context.Background(), target, 777777, "fresh", query)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Version == 0 {
		t.Fatalf("put result = %+v", res)
	}
	if got := center.SourceVersions()[target]; got != res.Version {
		t.Fatalf("version vector holds %d, want %d", got, res.Version)
	}
	if center.CacheInvalidations() == 0 {
		t.Fatal("mutation must count as a cache invalidation")
	}

	after, err := center.OverlapSearch(context.Background(), query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) == 0 || after[0].ID != 777777 || after[0].Overlap != query.Len() {
		t.Fatalf("post-mutation top result = %+v, want the inserted dataset", after)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatal("results unchanged after a dominating insert: stale cache")
	}

	// Deleting it restores the original answer — again through the cache.
	del, err := center.DeleteDataset(context.Background(), target, 777777)
	if err != nil {
		t.Fatal(err)
	}
	if !del.Found {
		t.Fatal("delete of a live dataset must report Found")
	}
	restored, err := center.OverlapSearch(context.Background(), query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, restored) {
		t.Fatalf("results after insert+delete differ from the original:\n  %v\n  %v", before, restored)
	}

	// Deletes are idempotent at the protocol level: a second delete of the
	// same ID reports Found=false without erroring or mutating anything.
	if del, err = center.DeleteDataset(context.Background(), target, 777777); err != nil || del.Found {
		t.Fatalf("double delete: res=%+v err=%v (must be Found=false, nil)", del, err)
	}

	// Re-registration is an authoritative reset: the source's entry leaves
	// the version vector so a rebuilt source restarting from version 0 is
	// not shadowed by the old counter's monotonic guard.
	for _, srv := range servers {
		if srv.Name == target {
			center.Register(srv.Summary(), &transport.InProc{Name: target, Handler: srv.Handler(), Metrics: center.Metrics})
		}
	}
	if _, ok := center.SourceVersions()[target]; ok {
		t.Fatal("re-registration must drop the source's version entry")
	}
}

func TestMutationAtUnknownOrReadOnlySource(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	center, _, _ := buildFederation(rng, 2, 10, DefaultOptions())
	if _, err := center.PutDataset(context.Background(), "nope", 1, "x", cellsNear(3, 3, 4)); !errors.Is(err, ErrUnknownSource) {
		t.Fatalf("unknown source: err = %v, want ErrUnknownSource", err)
	}
	// Sources built without EnableIngest are read-only.
	if _, err := center.PutDataset(context.Background(), "a", 1, "x", cellsNear(3, 3, 4)); err == nil {
		t.Fatal("mutation at a read-only source must fail")
	}
	var re *transport.RemoteError
	if _, err := center.DeleteDataset(context.Background(), "a", 1); !errors.As(err, &re) {
		t.Fatalf("read-only delete: err = %v, want RemoteError", err)
	}
}

// TestMutationGrowsSummary inserts data far outside a source's original
// extent and checks the center's DITS-G picks the source up for queries
// there — the summary-refresh path.
func TestMutationGrowsSummary(t *testing.T) {
	// One source confined to the lower-left corner; global filtering ON.
	g := worldGrid()
	center := NewCenter(g, DefaultOptions())
	var nodes []*dataset.Node
	for i := 0; i < 5; i++ {
		nodes = append(nodes, dataset.NewNodeFromCells(i+1, "seed", cellsNear(8+3*i, 8+2*i, 10)))
	}
	idx := dits.Build(g, nodes, 4)
	srv := NewSourceServerWithGrid("a", idx)
	st, err := ingest.Open(t.TempDir(), ingest.Options{
		Fsync:         ingest.FsyncNever,
		SnapshotEvery: -1,
		Bootstrap:     func() (*dits.Local, error) { return idx, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv.EnableIngest(st)
	center.Register(srv.Summary(), &transport.InProc{Name: "a", Handler: srv.Handler(), Metrics: center.Metrics})
	gen := center.Generation()

	// A far-corner query: the source's summary cannot reach it yet.
	side := 1 << theta
	far := cellsNear(side-8, side-8, 12)
	rs, err := center.OverlapSearch(context.Background(), far, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("far corner answered %v before any data lives there", rs)
	}

	if _, err := center.PutDataset(context.Background(), "a", 888888, "corner", far); err != nil {
		t.Fatal(err)
	}
	if center.Generation() == gen {
		t.Fatal("a summary-moving mutation must advance the membership epoch")
	}
	rs, err = center.OverlapSearch(context.Background(), far, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].ID != 888888 {
		t.Fatalf("post-mutation far query = %+v, want the inserted corner dataset", rs)
	}

	// A mutation strictly inside the (now grown) extent must NOT advance
	// the epoch — only the version vector moves.
	gen = center.Generation()
	if _, err := center.PutDataset(context.Background(), "a", 888889, "inner", cellsNear(10, 10, 6)); err != nil {
		t.Fatal(err)
	}
	if center.Generation() != gen {
		t.Fatal("an extent-preserving mutation must not advance the epoch")
	}
}

// TestEpochGlobalTracksMembers: each membership epoch builds its DITS-G
// from its members, so after a join, a re-registration with a moved rect,
// a leave and a summary-moving mutation, the pinned epoch's tree returns
// exactly the live members' current summaries for a world query.
func TestEpochGlobalTracksMembers(t *testing.T) {
	g := worldGrid()
	center := NewCenter(g, DefaultOptions())
	source := func(name string, cx, cy int) *SourceServer {
		var nodes []*dataset.Node
		for i := 0; i < 5; i++ {
			nodes = append(nodes, dataset.NewNodeFromCells(i+1, name, cellsNear(cx+3*i, cy+2*i, 10)))
		}
		return NewSourceServerWithGrid(name, dits.Build(g, nodes, 4))
	}
	live := map[string]*SourceServer{}
	register := func(srv *SourceServer) {
		center.Register(srv.Summary(), &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: center.Metrics})
		live[srv.Name] = srv
	}
	world := dits.QueryNode{Rect: geo.Rect{MinX: -1e6, MinY: -1e6, MaxX: 1e6, MaxY: 1e6}}
	world.O, world.R = world.Rect.Center(), world.Rect.Radius()
	check := func(step string) {
		t.Helper()
		got := map[string]dits.SourceSummary{}
		cands := center.epoch.Load().global.CandidateSources(world, 0)
		for _, s := range cands {
			got[s.Name] = s
		}
		want := map[string]dits.SourceSummary{}
		for name, srv := range live {
			want[name] = srv.Summary()
		}
		if len(cands) != len(got) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DITS-G holds %+v, want %+v", step, cands, want)
		}
	}

	a, b, c := source("a", 8, 8), source("b", 60, 20), source("c", 20, 60)
	enableIngest(t, c)
	for _, srv := range []*SourceServer{a, b, c} {
		register(srv)
	}
	check("register a, b, c")

	moved := source("b", 90, 90)
	if moved.Summary().Rect == b.Summary().Rect {
		t.Fatal("the re-registered b must move its rect")
	}
	register(moved)
	check("re-register b")

	center.Unregister("a")
	delete(live, "a")
	check("unregister a")

	before := c.Summary()
	gen := center.Generation()
	side := 1 << theta
	if _, err := center.PutDataset(context.Background(), "c", 999, "corner", cellsNear(side-8, 2, 12)); err != nil {
		t.Fatal(err)
	}
	if c.Summary() == before || center.Generation() == gen {
		t.Fatal("the put must move c's summary and swap the epoch")
	}
	check("put at c")
}

func TestSourceVersionRPC(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	center, servers := buildMutableFederation(t, rng, 1, 10, DefaultOptions())
	srv := servers[0]
	peer := &transport.InProc{Name: srv.Name, Handler: srv.Handler()}
	call := func() VersionResponse {
		var resp VersionResponse
		if err := peer.Call(context.Background(), MethodSourceVersion, nil, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	v0 := call()
	if !v0.Durable || v0.Version != 0 || v0.Name != srv.Name {
		t.Fatalf("initial version = %+v", v0)
	}
	if _, err := center.PutDataset(context.Background(), srv.Name, 42424242, "v", cellsNear(5, 5, 4)); err != nil {
		t.Fatal(err)
	}
	if v1 := call(); v1.Version != 1 {
		t.Fatalf("version after one mutation = %d, want 1", v1.Version)
	}
}

// TestConcurrentMutationsAndQueries races federated searches (overlap,
// batch, coverage with open sessions) against mutations; run under -race
// this is the serialization proof for the whole stack.
func TestConcurrentMutationsAndQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	center, servers := buildMutableFederation(t, rng, 3, 30, DefaultOptions())
	center.SetCache(cache.New(64))

	queries := make([]cellset.Set, 16)
	for i := range queries {
		queries[i] = randomQuery(rand.New(rand.NewSource(int64(100 + i))))
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(w*20+i)%len(queries)]
				if _, err := center.OverlapSearch(context.Background(), q, 5); err != nil {
					errCh <- err
					return
				}
				if _, err := center.CoverageSearch(context.Background(), q, 6, 3); err != nil {
					errCh <- err
					return
				}
				if _, err := center.OverlapSearchBatch(context.Background(), []BatchQuery{{Cells: q, K: 3}, {Cells: queries[i%len(queries)], K: 2}}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		mrng := rand.New(rand.NewSource(77))
		for i := 0; i < 60; i++ {
			src := servers[mrng.Intn(len(servers))].Name
			id := 500000 + i
			if _, err := center.PutDataset(context.Background(), src, id, "churn", cellsNear(mrng.Intn(1<<theta), mrng.Intn(1<<theta), 5)); err != nil {
				errCh <- err
				return
			}
			if i%3 == 0 {
				if _, err := center.DeleteDataset(context.Background(), src, id); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for _, srv := range servers {
		var err error
		srv.view(func(idx *dits.Local) { err = idx.CheckInvariants() })
		if err != nil {
			t.Fatal(err)
		}
	}
}

// staleOfferPeer makes an offer stale, once, on the armed peer's
// countdown-th coverage.fetch: it deletes the dataset the center is about
// to fetch — or, with carried, the next offer that fetch's answer carried,
// so the center holds a cached offer for a dataset already gone. With
// final it deletes, instead, the dataset of every offer a coverage.round
// answers, once answered; a round's answers arrive concurrently.
type staleOfferPeer struct {
	inner     transport.Peer
	srv       *SourceServer
	countdown *int // shared by all peers of a federation; fires at zero
	carried   bool
	final     bool
	mu        *sync.Mutex // guards deleted, shared like it
	deleted   *[]int
}

func (p *staleOfferPeer) Call(ctx context.Context, method string, req, resp any) error {
	if p.final && method == MethodCoverageRound {
		if err := p.inner.Call(ctx, method, req, resp); err != nil {
			return err
		}
		if o := resp.(*CoverageRoundResponse).Offer; o.Found {
			return p.delete(o.ID)
		}
		return nil
	}
	if method != MethodFetchCells {
		return p.inner.Call(ctx, method, req, resp)
	}
	if *p.countdown--; *p.countdown != 0 {
		return p.inner.Call(ctx, method, req, resp)
	}
	if !p.carried {
		if err := p.delete(req.(*FetchCellsRequest).ID); err != nil {
			return err
		}
		return p.inner.Call(ctx, method, req, resp)
	}
	if err := p.inner.Call(ctx, method, req, resp); err != nil {
		return err
	}
	if next := resp.(*FetchCellsResponse).Next; next.Found {
		return p.delete(next.ID)
	}
	return nil
}

func (p *staleOfferPeer) delete(id int) error {
	if _, err := p.srv.store.DeleteDataset(id); err != nil {
		return err
	}
	p.mu.Lock()
	*p.deleted = append(*p.deleted, id)
	p.mu.Unlock()
	return nil
}

func (p *staleOfferPeer) Close() error { return p.inner.Close() }

// TestCoverageReasksAfterStaleOffer: a delete that lands between a
// source's offer and the center's fetch makes the offer stale, not the
// source faulty. Under both failure policies the center must exclude the
// dataset, re-ask that source and re-pick, and the answer must be the one
// a fresh search over the post-delete data gives — with the source still a
// member in good standing. The stale offer is any fetched round's winner
// (rounds 1 to 4 of 5; the k-th pick is not fetched), or the next offer a
// fetch carried (cached by the center, not yet fetched). A carried offer
// can stand unasked into the final round and win it: that pick is the
// dataset as its source offered it (docs/PROTOCOL.md, "Writes during a
// query"), so the answer is the search's over the data before the delete.
// In "final" every offer's dataset is deleted once offered, and a k = 1
// query's one pick — the final round's winner — must be that answer too.
func TestCoverageReasksAfterStaleOffer(t *testing.T) {
	ctx := context.Background()
	for _, policy := range []FailurePolicy{FailFast, SkipFailed} {
		for _, carried := range []bool{false, true} {
			rng := rand.New(rand.NewSource(31))
			_, servers := buildMutableFederation(t, rng, 3, 60, DefaultOptions())
			opts := DefaultOptions()
			opts.OnSourceError = policy
			raced := NewCenter(worldGrid(), opts)
			countdown := 0
			var mu sync.Mutex
			var deleted []int
			for _, srv := range servers {
				raced.Register(srv.Summary(), &staleOfferPeer{
					inner:     &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: raced.Metrics},
					srv:       srv,
					countdown: &countdown,
					carried:   carried,
					mu:        &mu,
					deleted:   &deleted,
				})
			}
			fresh := NewCenter(worldGrid(), Options{GlobalFilter: true, ClipQuery: true}) // stateless oracle
			registerAll(fresh, servers)

			const k = 5
			stale := 0 // fetches that found their dataset gone
			for trial := 0; trial < 15; trial++ {
				q := randomQuery(rng)
				// Round 1's to round 4's winner, or the offer carried by
				// round 1's to round 3's fetch.
				countdown = 1 + trial%4
				if carried {
					countdown = 1 + trial%3
				}
				prior, err := fresh.CoverageSearch(ctx, q, 6, k)
				if err != nil {
					t.Fatal(err)
				}
				before, fetches := len(deleted), raced.Metrics.PerMethod()[MethodFetchCells].Calls
				got, err := raced.CoverageSearch(ctx, q, 6, k)
				if err != nil {
					t.Fatalf("policy %v carried %v trial %d: a stale offer failed the query: %v", policy, carried, trial, err)
				}
				want, err := fresh.CoverageSearch(ctx, q, 6, k)
				if err != nil {
					t.Fatal(err)
				}
				gone := len(deleted) > before
				if n := len(got.Picked); carried && gone && n == k && got.Picked[n-1].ID == deleted[len(deleted)-1] {
					want = prior // the final pick, offered before its delete
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("policy %v carried %v trial %d (deleted %v): raced search %+v, fresh search on the post-delete data %+v",
						policy, carried, trial, deleted[before:], got, want)
				}
				for _, p := range got.Picked[:min(len(got.Picked), k-1)] {
					if gone && p.ID == deleted[len(deleted)-1] {
						t.Fatalf("policy %v carried %v trial %d: deleted dataset %d was picked and fetched", policy, carried, trial, p.ID)
					}
				}
				fetched := len(got.Picked)
				if fetched == k {
					fetched-- // the k-th pick is not fetched
				}
				stale += int(raced.Metrics.PerMethod()[MethodFetchCells].Calls-fetches) - fetched
			}
			if len(deleted) < 6 || stale < 3 {
				t.Fatalf("policy %v carried %v: %d of 15 searches deleted an offer, %d fetches found one gone; the test exercises too little",
					policy, carried, len(deleted), stale)
			}
			if f := raced.Metrics.Failures(); len(f) != 0 {
				t.Errorf("policy %v carried %v: source failures recorded for stale offers: %v", policy, carried, f)
			}
		}

		t.Run(fmt.Sprintf("final/policy %v", policy), func(t *testing.T) {
			rng := rand.New(rand.NewSource(33))
			_, servers := buildMutableFederation(t, rng, 3, 60, DefaultOptions())
			opts := DefaultOptions()
			opts.OnSourceError = policy
			raced := NewCenter(worldGrid(), opts)
			var countdown int
			var mu sync.Mutex
			var deleted []int
			for _, srv := range servers {
				raced.Register(srv.Summary(), &staleOfferPeer{
					inner: &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: raced.Metrics},
					srv:   srv, countdown: &countdown, final: true, mu: &mu, deleted: &deleted,
				})
			}
			fresh := NewCenter(worldGrid(), Options{GlobalFilter: true, ClipQuery: true})
			registerAll(fresh, servers)
			picked := 0
			for trial := 0; trial < 10; trial++ {
				q := randomQuery(rng)
				want, err := fresh.CoverageSearch(ctx, q, 6, 1)
				if err != nil {
					t.Fatal(err)
				}
				before := len(deleted)
				got, err := raced.CoverageSearch(ctx, q, 6, 1)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (deleted %v): raced search %+v, search before the deletes %+v", trial, deleted[before:], got, want)
				}
				if len(got.Picked) == 0 {
					continue
				}
				picked++
				if p := got.Picked[0]; !slices.Contains(deleted[before:], p.ID) || got.Coverage != got.QueryCoverage+p.Overlap {
					t.Fatalf("trial %d: pick %+v, coverage %d of %d: want a dataset deleted after its offer, gaining exactly the coverage it adds",
						trial, p, got.Coverage, got.QueryCoverage)
				}
			}
			if picked < 5 {
				t.Fatalf("%d of 10 queries picked a dataset; the test exercises too little", picked)
			}
			if n := raced.Metrics.PerMethod()[MethodFetchCells].Calls; n != 0 {
				t.Errorf("%d coverage.fetch calls for k = 1 queries", n)
			}
		})
	}
}

// TestSessionSeesMutationsBetweenRounds: a session's connected set is only
// as good as the data it was computed over. A dataset put after round 1
// that is connected to the query alone — not to anything a later delta
// brings — must be offered in round 2, and a dataset deleted after being
// found connected must not be offered again; in both cases the round
// answers what a session opened fresh on the current data answers.
func TestSessionSeesMutationsBetweenRounds(t *testing.T) {
	const delta = 3
	q := cellBlock(19, 19, 3, 3)
	nodes := []*dataset.Node{dataset.NewNodeFromCells(1, "right", cellBlock(24, 19, 4, 3))} // 3 cells right of q
	rng := rand.New(rand.NewSource(41))
	for id := 2; id < 40; id++ { // far from everything below
		nodes = append(nodes, dataset.NewNodeFromCells(id, "far", cellsNear(60+rng.Intn(60), 60+rng.Intn(60), 6)))
	}
	srv := NewSourceServerWithGrid("s", dits.Build(worldGrid(), nodes, 8))
	enableIngest(t, srv)
	ctx := context.Background()

	first := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: 7, Base: cellset.FromSet(q), Delta: delta})
	if !first.Found || first.ID != 1 {
		t.Fatalf("round 1 offered %+v, want dataset 1", first)
	}
	if f := srv.handleFetchCells(ctx, FetchCellsRequest{Session: 7, ID: 1}); !f.Committed {
		t.Fatal("fetch did not commit to the session")
	}
	// 3 cells left of q, 8 from dataset 1: round 2's delta (dataset 1's
	// cells) cannot reach it, only the query verified in round 1 can.
	if _, err := srv.store.PutDataset(100, "left", cellBlock(12, 18, 5, 5)); err != nil {
		t.Fatal(err)
	}
	round2 := CoverageRoundRequest{Session: 7, Delta: delta, Exclude: []int{1}}
	second := srv.handleCoverageRound(ctx, round2)
	if !second.Found || second.ID != 100 || second.Gain != 25 {
		t.Fatalf("round 2 offered %+v, want the dataset put after round 1 (ID 100, gain 25)", second)
	}
	if _, err := srv.store.DeleteDataset(100); err != nil {
		t.Fatal(err)
	}
	again := srv.handleCoverageRound(ctx, round2)
	if again.Found && again.ID == 100 {
		t.Fatal("a deleted dataset was offered from the session's connected set")
	}
	merged := q.Union(nodes[0].Cells)
	if want := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: 8, Base: cellset.FromSet(merged), Delta: delta, Exclude: []int{1}}); again.Found != want.Found || again.ID != want.ID || again.Gain != want.Gain {
		t.Fatalf("after the delete the session offered %+v, a fresh session %+v", again, want)
	}
}

// TestSessionStaleBoundsAfterPut: a session keeps a bound on every connected
// dataset's gain, and a put between rounds voids them. In "grown" the put
// replaces a small connected dataset under the same ID with a larger one,
// which must win round 2 over the dataset that led on the old data. In
// "shrunk leader" the fetch of round 1's winner left a dataset's bound
// exact and on top; the put shrinks it, and trusting the bound would offer
// it at its old gain. Either way round 2 offers what Algorithm 3
// (coverage.DITSSearcher) picks second on the post-put data.
func TestSessionStaleBoundsAfterPut(t *testing.T) {
	const delta = 3
	cases := []struct {
		name    string
		q       cellset.Set
		nodes   map[int]cellset.Set // ID 1 is round 1's winner on both data
		put     cellset.Set         // the new cells of ID 2
		wantID  int
		stalled int // the ID offered from stale bounds
	}{
		{
			name: "grown",
			q:    cellBlock(40, 40, 4, 4),
			nodes: map[int]cellset.Set{
				1: cellBlock(44, 40, 8, 8), // right of q: gain 64
				2: cellBlock(40, 36, 2, 2), // below q: 4 cells
				3: cellBlock(36, 40, 3, 3), // left of q: 9 cells
			},
			put:     cellBlock(38, 35, 5, 5), // below q: 25 cells
			wantID:  2,
			stalled: 3,
		},
		{
			name: "shrunk leader",
			q:    cellBlock(40, 40, 6, 6),
			nodes: map[int]cellset.Set{
				1: cellBlock(46, 40, 6, 6), // right of q: gain 36
				2: cellBlock(34, 40, 8, 5), // 40 cells, 10 in q: gain 30, the next offer
				3: cellBlock(40, 35, 4, 3), // below q: gain 12
			},
			put:     cellBlock(38, 41, 2, 2), // left of q: gain 4
			wantID:  3,
			stalled: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var nodes []*dataset.Node
			for id := 1; id <= 3; id++ {
				nodes = append(nodes, dataset.NewNodeFromCells(id, "near", tc.nodes[id]))
			}
			rng := rand.New(rand.NewSource(43))
			for id := 10; id < 40; id++ { // far from everything above
				nodes = append(nodes, dataset.NewNodeFromCells(id, "far", cellsNear(60+rng.Intn(60), 60+rng.Intn(60), 6)))
			}
			srv := NewSourceServerWithGrid("s", dits.Build(worldGrid(), nodes, 8))
			enableIngest(t, srv)
			ctx := context.Background()

			first := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: 7, Base: cellset.FromSet(tc.q), Delta: delta})
			if !first.Found || first.ID != 1 {
				t.Fatalf("round 1 offered %+v, want dataset 1", first)
			}
			f := srv.handleFetchCells(ctx, FetchCellsRequest{Session: 7, ID: 1, Exclude: []int{1}})
			if !f.Committed || !f.Next.Found || f.Next.ID != tc.stalled {
				t.Fatalf("the fetch carried %+v, want dataset %d next", f, tc.stalled)
			}
			if _, err := srv.store.PutDataset(2, "put", tc.put); err != nil {
				t.Fatal(err)
			}
			got := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: 7, Delta: delta, Exclude: []int{1}})

			var one, two coverage.Result
			srv.view(func(idx *dits.Local) {
				s := &coverage.DITSSearcher{Index: idx}
				q := dataset.NewNodeFromCells(-1, "q", tc.q)
				one, two = s.Search(q, delta, 1), s.Search(q, delta, 2)
			})
			if ids := two.IDs(); len(ids) != 2 || ids[0] != 1 || ids[1] != tc.wantID {
				t.Fatalf("Algorithm 3 on the post-put data picks %v, want [1 %d]", ids, tc.wantID)
			}
			if want := two.Coverage - one.Coverage; !got.Found || got.ID != tc.wantID || got.Gain != want {
				t.Fatalf("round 2 offered %+v, Algorithm 3 picks dataset %d with gain %d", got.Offer, tc.wantID, want)
			}
		})
	}
}

package federation

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
	"dits/internal/search/overlap"
	"dits/internal/transport"
)

const theta = 7

func worldGrid() geo.Grid {
	side := float64(int64(1) << theta)
	return geo.NewGrid(theta, geo.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side})
}

// buildFederation creates m in-process sources over disjoint ID ranges,
// clustered in different regions so global filtering has something to
// prune. Returns the center, all pooled nodes, and the source servers.
func buildFederation(rng *rand.Rand, m, perSource int, opts Options) (*Center, []*dataset.Node, []*SourceServer) {
	g := worldGrid()
	center := NewCenter(g, opts)
	var pooled []*dataset.Node
	var servers []*SourceServer
	side := 1 << theta
	for s := 0; s < m; s++ {
		// Each source occupies a horizontal band of the space, with some
		// spill so sources overlap a little.
		bandLo := s * side / m
		bandHi := (s+1)*side/m + side/8
		var nodes []*dataset.Node
		for i := 0; i < perSource; i++ {
			id := s*10000 + i
			cx := rng.Intn(side)
			cy := bandLo + rng.Intn(max(1, bandHi-bandLo))
			n := 1 + rng.Intn(15)
			ids := make([]uint64, n)
			for j := range ids {
				x := clamp(cx+rng.Intn(9)-4, 0, side-1)
				y := clamp(cy+rng.Intn(9)-4, 0, side-1)
				ids[j] = geo.ZEncode(uint32(x), uint32(y))
			}
			nd := dataset.NewNodeFromCells(id, "", cellset.New(ids...))
			nodes = append(nodes, nd)
			pooled = append(pooled, nd)
		}
		idx := dits.Build(g, nodes, 8)
		srv := NewSourceServerWithGrid(srcName(s), idx)
		servers = append(servers, srv)
		center.Register(srv.Summary(), &transport.InProc{
			Name: srv.Name, Handler: srv.Handler(), Metrics: center.Metrics,
		})
	}
	return center, pooled, servers
}

// srcName yields names whose lexicographic order matches the ID ranges, so
// the federated tie-break (source, id) matches the pooled tie-break (id).
func srcName(s int) string { return string(rune('a' + s)) }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func randomQuery(rng *rand.Rand) cellset.Set {
	side := 1 << theta
	cx, cy := rng.Intn(side), rng.Intn(side)
	n := 3 + rng.Intn(25)
	ids := make([]uint64, n)
	for j := range ids {
		x := clamp(cx+rng.Intn(17)-8, 0, side-1)
		y := clamp(cy+rng.Intn(17)-8, 0, side-1)
		ids[j] = geo.ZEncode(uint32(x), uint32(y))
	}
	return cellset.New(ids...)
}

func overlapsOf(rs []SourceResult) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Overlap
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFederatedOverlapMatchesPooled: distributing the search across sources
// must not change the answer a single pooled index would give.
func TestFederatedOverlapMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	center, pooled, _ := buildFederation(rng, 4, 120, DefaultOptions())
	oracle := &overlap.BruteForce{Nodes: pooled}
	for trial := 0; trial < 40; trial++ {
		q := randomQuery(rng)
		qNode := dataset.NewNodeFromCells(-1, "", q)
		for _, k := range []int{1, 5, 20} {
			want := oracle.TopK(qNode, k)
			got, err := center.OverlapSearch(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			wantOverlaps := make([]int, len(want))
			for i, r := range want {
				wantOverlaps[i] = r.Overlap
			}
			if !equalInts(overlapsOf(got), wantOverlaps) {
				t.Fatalf("trial %d k=%d: federated %v, pooled %v",
					trial, k, overlapsOf(got), wantOverlaps)
			}
		}
	}
}

// TestDistributionStrategiesPreserveResults: switching global filtering and
// query clipping on/off must never change results, only communication cost.
func TestDistributionStrategiesPreserveResults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	variants := []Options{
		{GlobalFilter: true, ClipQuery: true},
		{GlobalFilter: true, ClipQuery: false},
		{GlobalFilter: false, ClipQuery: true},
		{GlobalFilter: false, ClipQuery: false},
	}
	var centers []*Center
	for _, opts := range variants {
		c, _, _ := buildFederation(rand.New(rand.NewSource(7)), 3, 80, opts)
		centers = append(centers, c)
	}
	for trial := 0; trial < 25; trial++ {
		q := randomQuery(rng)
		ref, err := centers[0].OverlapSearch(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		for vi, c := range centers[1:] {
			got, err := c.OverlapSearch(context.Background(), q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(overlapsOf(got), overlapsOf(ref)) {
				t.Fatalf("trial %d variant %d: %v vs ref %v", trial, vi+1,
					overlapsOf(got), overlapsOf(ref))
			}
		}
		refCov, err := centers[0].CoverageSearch(context.Background(), q, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		for vi, c := range centers[1:] {
			got, err := c.CoverageSearch(context.Background(), q, 2, 5)
			if err != nil {
				t.Fatal(err)
			}
			if got.Coverage != refCov.Coverage || len(got.Picked) != len(refCov.Picked) {
				t.Fatalf("trial %d variant %d coverage: %d/%d picks vs ref %d/%d",
					trial, vi+1, got.Coverage, len(got.Picked), refCov.Coverage, len(refCov.Picked))
			}
		}
	}
}

// TestStrategiesReduceCommunication: with both strategies on, bytes sent
// must not exceed the broadcast-everything variant (Figs. 13 and 19).
func TestStrategiesReduceCommunication(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	smart, _, _ := buildFederation(rand.New(rand.NewSource(9)), 4, 80, DefaultOptions())
	naive, _, _ := buildFederation(rand.New(rand.NewSource(9)), 4, 80, Options{})
	for trial := 0; trial < 15; trial++ {
		q := randomQuery(rng)
		smart.Metrics.Reset()
		naive.Metrics.Reset()
		if _, err := smart.OverlapSearch(context.Background(), q, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := naive.OverlapSearch(context.Background(), q, 10); err != nil {
			t.Fatal(err)
		}
		if smart.Metrics.BytesSent() > naive.Metrics.BytesSent() {
			t.Fatalf("trial %d: smart sent %d > naive %d bytes",
				trial, smart.Metrics.BytesSent(), naive.Metrics.BytesSent())
		}
		if smart.Metrics.Messages() > naive.Metrics.Messages() {
			t.Fatalf("trial %d: smart sent %d > naive %d messages",
				trial, smart.Metrics.Messages(), naive.Metrics.Messages())
		}
	}
}

// TestFederatedCoverageMatchesPooled: the federated greedy must produce the
// same coverage as the single-machine greedy over the pooled corpus.
func TestFederatedCoverageMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	center, pooled, _ := buildFederation(rng, 3, 100, DefaultOptions())
	sg := &coverage.SG{Nodes: pooled}
	for trial := 0; trial < 15; trial++ {
		q := randomQuery(rng)
		qNode := dataset.NewNodeFromCells(-1, "", q)
		for _, delta := range []float64{0, 2, 6} {
			for _, k := range []int{1, 4} {
				want := sg.Search(qNode, delta, k)
				got, err := center.CoverageSearch(context.Background(), q, delta, k)
				if err != nil {
					t.Fatal(err)
				}
				if got.Coverage != want.Coverage {
					t.Fatalf("trial %d δ=%v k=%d: federated coverage %d (picks %v), pooled %d (picks %v)",
						trial, delta, k, got.Coverage, got.Picked, want.Coverage, want.IDs())
				}
			}
		}
	}
}

// TestTCPFederationMatchesInProc runs the same federation over real TCP
// connections and expects byte-identical results.
func TestTCPFederationMatchesInProc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inproc, _, servers := buildFederation(rand.New(rand.NewSource(11)), 3, 60, DefaultOptions())

	g := worldGrid()
	tcpCenter := NewCenter(g, DefaultOptions())
	for _, srv := range servers {
		ts, err := transport.Serve("127.0.0.1:0", srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		peer := transport.DialPool(srv.Name, ts.Addr(), 2, tcpCenter.Metrics)
		defer peer.Close()
		tcpCenter.Register(srv.Summary(), peer)
	}

	for trial := 0; trial < 10; trial++ {
		q := randomQuery(rng)
		a, err := inproc.OverlapSearch(context.Background(), q, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tcpCenter.OverlapSearch(context.Background(), q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d result %d: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
		ca, err := inproc.CoverageSearch(context.Background(), q, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := tcpCenter.CoverageSearch(context.Background(), q, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		if ca.Coverage != cb.Coverage || len(ca.Picked) != len(cb.Picked) {
			t.Fatalf("trial %d coverage: %+v vs %+v", trial, ca, cb)
		}
	}
}

// failingPeer always errors, for failure injection.
type failingPeer struct{}

func (failingPeer) Call(context.Context, string, any, any) error {
	return errors.New("link down")
}
func (failingPeer) Close() error { return nil }

func TestSourceFailurePropagates(t *testing.T) {
	g := worldGrid()
	center := NewCenter(g, Options{}) // broadcast so the bad peer is hit
	nd := dataset.NewNodeFromCells(1, "", cellset.New(geo.ZEncode(3, 3)))
	idx := dits.Build(g, []*dataset.Node{nd}, 4)
	srv := NewSourceServerWithGrid("ok", idx)
	center.Register(srv.Summary(), &transport.InProc{Name: "ok", Handler: srv.Handler(), Metrics: center.Metrics})
	center.Register(dits.SourceSummary{Name: "zz-bad", Rect: geo.Rect{MaxX: 1, MaxY: 1}}, failingPeer{})

	if _, err := center.OverlapSearch(context.Background(), cellset.New(geo.ZEncode(3, 3)), 3); err == nil {
		t.Error("overlap with failing source should error")
	}
	if _, err := center.CoverageSearch(context.Background(), cellset.New(geo.ZEncode(3, 3)), 1, 3); err == nil {
		t.Error("coverage with failing source should error")
	}
}

func TestEmptySourceNeverAnswersButDoesNotPoison(t *testing.T) {
	// A source with no datasets uploads an empty summary; it must neither
	// become a candidate nor break the global index for healthy sources.
	g := worldGrid()
	center := NewCenter(g, DefaultOptions())
	empty := NewSourceServerWithGrid("empty", dits.Build(g, nil, 4))
	center.Register(empty.Summary(), &transport.InProc{Name: "empty", Handler: empty.Handler(), Metrics: center.Metrics})

	nd := dataset.NewNodeFromCells(1, "only", cellset.New(geo.ZEncode(7, 7)))
	full := NewSourceServerWithGrid("full", dits.Build(g, []*dataset.Node{nd}, 4))
	center.Register(full.Summary(), &transport.InProc{Name: "full", Handler: full.Handler(), Metrics: center.Metrics})

	rs, err := center.OverlapSearch(context.Background(), cellset.New(geo.ZEncode(7, 7)), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Source != "full" || rs[0].ID != 1 {
		t.Fatalf("results = %v, want the one dataset from 'full'", rs)
	}
	cov, err := center.CoverageSearch(context.Background(), cellset.New(geo.ZEncode(8, 7)), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cov.Picked) != 1 || cov.Picked[0].Source != "full" {
		t.Fatalf("coverage picked %v, want the one dataset from 'full'", cov.Picked)
	}
}

func TestEmptyFederationAndQueries(t *testing.T) {
	center := NewCenter(worldGrid(), DefaultOptions())
	if rs, err := center.OverlapSearch(context.Background(), cellset.New(1), 3); err != nil || rs != nil {
		t.Errorf("empty federation: %v %v", rs, err)
	}
	res, err := center.CoverageSearch(context.Background(), nil, 1, 3)
	if err != nil || len(res.Picked) != 0 {
		t.Errorf("empty query coverage: %+v %v", res, err)
	}
	rng := rand.New(rand.NewSource(6))
	c2, _, _ := buildFederation(rng, 2, 10, DefaultOptions())
	if rs, err := c2.OverlapSearch(context.Background(), nil, 3); err != nil || rs != nil {
		t.Errorf("nil query: %v %v", rs, err)
	}
	if rs, err := c2.OverlapSearch(context.Background(), cellset.New(1), 0); err != nil || rs != nil {
		t.Errorf("k=0: %v %v", rs, err)
	}
	if c2.NumSources() != 2 {
		t.Errorf("NumSources = %d", c2.NumSources())
	}
	c2.Unregister(srcName(0))
	if c2.NumSources() != 1 {
		t.Errorf("NumSources after unregister = %d", c2.NumSources())
	}
}

package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/transport"
)

// plane is an in-process cluster over given source servers with every link
// on the binary codec and counted: hop is the gateway→center traffic,
// links the center→source traffic.
type plane struct {
	cluster *Cluster
	hop     *transport.Metrics
	links   *transport.Metrics
	centers map[string]*switchPeer
}

// planeConfig describes a plane; the wrap hooks (nil for none) sit between
// a caller and the in-process peer it would otherwise use.
type planeConfig struct {
	centers    int
	servers    []*SourceServer
	wrapSource func(source string, p transport.Peer) transport.Peer
	wrapCenter func(center string, p transport.Peer) transport.Peer
}

func newPlane(t *testing.T, cfg planeConfig) *plane {
	t.Helper()
	g := worldGrid()
	byName := make(map[string]*SourceServer, len(cfg.servers))
	for _, s := range cfg.servers {
		byName[s.Name] = s
	}
	p := &plane{hop: &transport.Metrics{}, links: &transport.Metrics{}, centers: map[string]*switchPeer{}}
	peers := make(map[string]transport.Peer, cfg.centers)
	for i := 0; i < cfg.centers; i++ {
		name := fmt.Sprintf("center-%d", i)
		cs, err := NewCenterServer(name, NewCenter(g, DefaultOptions()), CenterServerOptions{
			Dial: func(addr string) (transport.Peer, error) {
				srv, ok := byName[addr]
				if !ok {
					return nil, fmt.Errorf("no source at %q", addr)
				}
				var peer transport.Peer = &transport.InProc{Name: addr, Handler: srv.Handler(), Metrics: p.links}
				if cfg.wrapSource != nil {
					peer = cfg.wrapSource(addr, peer)
				}
				return peer, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cs.Close() })
		sw := &switchPeer{inner: &transport.InProc{Name: name, Handler: cs.Handler(), Metrics: p.hop}}
		p.centers[name] = sw
		peers[name] = sw
		if cfg.wrapCenter != nil {
			peers[name] = cfg.wrapCenter(name, sw)
		}
	}
	p.cluster = NewCluster(g, peers)
	for _, srv := range cfg.servers {
		if err := p.cluster.AddSource(context.Background(), ClusterSource{Name: srv.Name, Addr: srv.Name}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// calls returns how many exchanges of the method the metrics have seen.
func calls(m *transport.Metrics, method string) int64 { return m.PerMethod()[method].Calls }

// cornerServers builds three small mutable sources far apart — a bottom
// left, b top right, c top left — so that a query inside one of them has no
// other candidate, even under DITS-G's ball bound, and the bottom right
// corner belongs to nobody.
func cornerServers(t *testing.T) []*SourceServer {
	t.Helper()
	var servers []*SourceServer
	for i, at := range [][2]int{{8, 8}, {110, 110}, {8, 110}} {
		var nodes []*dataset.Node
		for j := 0; j < 4; j++ {
			nodes = append(nodes, dataset.NewNodeFromCells((i+1)*100+j, "corner", cellsNear(at[0]+2*j, at[1]+j, 8)))
		}
		srv := NewSourceServerWithGrid(srcName(i), dits.Build(worldGrid(), nodes, 4))
		enableIngest(t, srv)
		servers = append(servers, srv)
	}
	return servers
}

// funcPeer is a transport.Peer whose Call is a closure over the peer it
// wraps: the fault injectors below are one function each.
type funcPeer struct {
	inner transport.Peer
	call  func(ctx context.Context, inner transport.Peer, method string, req, resp any) error
}

func (p *funcPeer) Call(ctx context.Context, method string, req, resp any) error {
	return p.call(ctx, p.inner, method, req, resp)
}
func (p *funcPeer) Close() error { return p.inner.Close() }

// TestProbeRepairsLostMutationAck: a put whose acknowledgement is lost
// between center and gateway leaves the gateway pruning on the old extent —
// an OJSP in the newly covered area misses the dataset — until a Probe
// folds a center's (summary, version) into the view: the center that
// relayed the put, or, when that center has died since, the one the source
// re-homed to, which seeds the version from the source when it adopts it.
func TestProbeRepairsLostMutationAck(t *testing.T) {
	for _, failover := range []bool{false, true} {
		t.Run(fmt.Sprintf("failover=%v", failover), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			p := newPlane(t, planeConfig{centers: 2, servers: cornerServers(t),
				wrapCenter: func(_ string, inner transport.Peer) transport.Peer {
					return &funcPeer{inner: inner, call: func(cctx context.Context, inner transport.Peer, method string, req, resp any) error {
						err := inner.Call(cctx, method, req, resp)
						if fwd, ok := req.(*ClusterForwardRequest); ok && fwd.Calls[0].Method == MethodDatasetPut {
							// Delivered and applied; the caller gives up before
							// the reply arrives (a timeout, not a dead center).
							once.Do(func() { cancel(); err = ctx.Err() })
						}
						return err
					}}
				}})
			fresh := cellsNear(110, 8, 8) // the corner nobody covers
			if _, err := p.cluster.PutDataset(ctx, "a", 777, "lost-ack", fresh); !errors.Is(err, context.Canceled) {
				t.Fatalf("put with a dropped reply: err = %v, want context.Canceled", err)
			}
			if st := p.cluster.Stats(); st.Failovers != 0 {
				t.Fatalf("a caller-side timeout failed a center over: %+v", st)
			}
			bg := context.Background()
			before := calls(p.hop, MethodClusterForward)
			rs, err := p.cluster.OverlapSearch(bg, fresh, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != 0 || calls(p.hop, MethodClusterForward) != before {
				t.Fatalf("before the probe the gateway should still prune on the old extent; got %v", rs)
			}
			probes, wantDowned := 1, 0
			if failover {
				p.centers[p.cluster.Stats().SourceOwners["a"]].down.Store(true)
				probes, wantDowned = 2, 1
			}
			downed := 0
			for range probes {
				downed += p.cluster.Probe(bg)
			}
			if downed != wantDowned {
				t.Fatalf("probes marked %d centers down, want %d", downed, wantDowned)
			}
			rs, err = p.cluster.OverlapSearch(bg, fresh, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != 1 || rs[0].Source != "a" || rs[0].ID != 777 {
				t.Fatalf("after the probe the dataset must be found; got %v", rs)
			}
			if got := p.cluster.SourceVersions()["a"]; got == 0 {
				t.Fatal("probe did not fold the source's data version into the view")
			}
		})
	}
}

// TestRelaySurvivesCenterKillMidRound kills the owner center between a
// coverage.round and its coverage.fetch. The session lives at the source,
// so the query neither fails nor restarts: same picks as the single center,
// one failover, and no source is sent a second Base. Afterwards no source
// holds a session but the query's own, which the next round closes.
func TestRelaySurvivesCenterKillMidRound(t *testing.T) {
	oracle, _, servers := buildFederation(rand.New(rand.NewSource(71)), 5, 80, DefaultOptions())
	var mu sync.Mutex
	bases := map[string]int{}
	sessions := map[string]uint64{} // per source, the session of its last round
	var p *plane
	var killed string
	p = newPlane(t, planeConfig{centers: 3, servers: servers,
		wrapSource: func(source string, inner transport.Peer) transport.Peer {
			return &funcPeer{inner: inner, call: func(ctx context.Context, inner transport.Peer, method string, req, resp any) error {
				if method == MethodCoverageRound {
					// The relay passes the center's encoded request through.
					var r CoverageRoundRequest
					if err := BinaryCodec.Decode(req.(rawBody), &r); err != nil {
						return err
					}
					mu.Lock()
					if !r.Base.IsEmpty() {
						bases[fmt.Sprintf("%s/%d", source, r.Session)]++
					}
					sessions[source] = r.Session
					mu.Unlock()
				}
				return inner.Call(ctx, method, req, resp)
			}}
		},
		wrapCenter: func(center string, inner transport.Peer) transport.Peer {
			return &funcPeer{inner: inner, call: func(ctx context.Context, inner transport.Peer, method string, req, resp any) error {
				if fwd, ok := req.(*ClusterForwardRequest); ok && killed == "" && fwd.Calls[0].Method == MethodFetchCells {
					killed = center
					p.centers[center].down.Store(true)
				}
				return inner.Call(ctx, method, req, resp)
			}}
		}})
	ctx := context.Background()
	q := randomQuery(rand.New(rand.NewSource(72)))
	want, err := oracle.CoverageSearch(ctx, q, 6, 5)
	if err != nil || len(want.Picked) < 2 {
		t.Fatalf("oracle: %d picks, err %v — the query must run several rounds", len(want.Picked), err)
	}
	oracles := map[uint64]bool{} // the oracle's sessions: another center's
	for _, srv := range servers {
		for _, id := range heldSessions(srv) {
			oracles[id] = true
		}
	}
	got, err := p.cluster.CoverageSearch(ctx, q, 6, 5)
	if err != nil {
		t.Fatalf("CJSP across a center kill: %v", err)
	}
	sameResults(t, "picks", got.Picked, want.Picked)
	if got.Coverage != want.Coverage {
		t.Fatalf("coverage %d, oracle %d", got.Coverage, want.Coverage)
	}
	if st := p.cluster.Stats(); killed == "" || st.Failovers != 1 || st.Healthy != 2 {
		t.Fatalf("killed %q, stats %+v: want exactly one failover", killed, st)
	}
	for key, n := range bases {
		if n > 1 {
			t.Errorf("session %s was sent %d Bases: it did not outlive its relay", key, n)
		}
	}
	if len(bases) == 0 {
		t.Fatal("no relayed round carried a Base: the count checks nothing")
	}
	for _, srv := range servers {
		for _, id := range heldSessions(srv) {
			if id != sessions[srv.Name] && !oracles[id] {
				t.Errorf("source %s holds session %d, not the query's %d", srv.Name, id, sessions[srv.Name])
			}
		}
	}
}

// searcher is the query surface a Center and a Cluster share.
type searcher interface {
	OverlapSearch(ctx context.Context, queryCells cellset.Set, k int) ([]SourceResult, error)
	OverlapSearchBatch(ctx context.Context, queries []BatchQuery) ([][]SourceResult, error)
	CoverageSearch(ctx context.Context, queryCells cellset.Set, delta float64, k int) (CoverageResult, error)
}

// TestRelaySourceErrorIsPerSource: a source whose connection fails behind a
// healthy center is that source's error — for an OJSP, a batch and a CJSP
// alike: under SkipFailed the query degrades exactly as a single center's
// would, under FailFast it fails, and in neither case is the center failed
// over.
func TestRelaySourceErrorIsPerSource(t *testing.T) {
	_, _, servers := buildFederation(rand.New(rand.NewSource(81)), 4, 80, DefaultOptions())
	broken := func(source string, inner transport.Peer) transport.Peer {
		return &funcPeer{inner: inner, call: func(ctx context.Context, inner transport.Peer, method string, req, resp any) error {
			if source == "b" && method != MethodSummary && method != MethodSourceVersion {
				return errors.New("connection reset by peer")
			}
			return inner.Call(ctx, method, req, resp)
		}}
	}
	opts := DefaultOptions()
	opts.OnSourceError = SkipFailed
	oracle := NewCenter(worldGrid(), opts)
	for _, srv := range servers {
		oracle.Register(srv.Summary(), broken(srv.Name, &transport.InProc{Name: srv.Name, Handler: srv.Handler()}))
	}
	p := newPlane(t, planeConfig{centers: 3, servers: servers, wrapSource: broken})
	ctx := context.Background()
	q := servers[1].Index.Get(10000).Cells // inside b's band: b is a candidate from round one
	// The OJSP classes also reach into a's and c's bands, so the degraded
	// answer is not empty.
	wide := q.Union(servers[0].Index.Get(0).Cells).Union(servers[2].Index.Get(20000).Cells)
	for _, class := range []struct {
		name string
		run  func(searcher) ([]SourceResult, error)
	}{
		{"ojsp", func(s searcher) ([]SourceResult, error) { return s.OverlapSearch(ctx, wide, 8) }},
		{"batch", func(s searcher) ([]SourceResult, error) {
			outs, err := s.OverlapSearchBatch(ctx, []BatchQuery{{Cells: wide, K: 5}, {Cells: q, K: 3}})
			return slices.Concat(outs...), err
		}},
		{"cjsp", func(s searcher) ([]SourceResult, error) {
			res, err := s.CoverageSearch(ctx, q, 6, 4)
			return res.Picked, err
		}},
	} {
		t.Run(class.name, func(t *testing.T) {
			p.cluster.view.Options.OnSourceError = FailFast
			if _, err := class.run(p.cluster); err == nil {
				t.Fatal("FailFast: a failed source must fail the query")
			}
			p.cluster.view.Options.OnSourceError = SkipFailed
			want, err := class.run(oracle)
			if err != nil || len(want) == 0 {
				t.Fatalf("oracle: %v, err %v", want, err)
			}
			got, err := class.run(p.cluster)
			if err != nil {
				t.Fatalf("SkipFailed: %v", err)
			}
			sameResults(t, "degraded answer", got, want)
			for _, r := range got {
				if r.Source == "b" {
					t.Fatalf("answered %+v from the failed source", r)
				}
			}
		})
	}
	if st := p.cluster.Stats(); st.Failovers != 0 || st.Healthy != 3 {
		t.Fatalf("a source's failure failed a center over: %+v", st)
	}
	if p.cluster.view.Metrics.Failures()["b"] == 0 {
		t.Error("the skipped source's failure was not recorded")
	}
}

// relayBudget makes every fan-out of the plane's view assert that it cost
// exactly one cluster.forward per owner center, and counts the fan-outs by
// source method. Fan-outs are serialized so that each is counted alone: a
// CJSP's last round has its closes running beside it.
func relayBudget(t *testing.T, p *plane) map[string]int {
	fanouts := map[string]int{}
	var mu sync.Mutex
	p.cluster.view.relay = func(ctx context.Context, cs []memberCall) []error {
		mu.Lock()
		defer mu.Unlock()
		before := calls(p.hop, MethodClusterForward)
		errs := p.cluster.relay(ctx, cs)
		owners := map[*clusterCenter]bool{}
		for _, c := range cs {
			owners[p.cluster.owner[c.m.summary.Name]] = true
		}
		if sent := calls(p.hop, MethodClusterForward) - before; sent != int64(len(owners)) {
			t.Errorf("a %s fan-out of %d calls to %d centers cost %d cluster.forward messages",
				cs[0].method, len(cs), len(owners), sent)
		}
		fanouts[cs[0].method]++
		return errs
	}
	return fanouts
}

// TestClusterCommBudget holds the clustered path to its message budget, on
// in-process links with the binary codec so every count is exact: every
// fan-out — OJSP, batch, CJSP round, mutation — costs exactly one
// cluster.forward per owner center, the source tier sees what it sees
// through one center, call for call, and a clustered CJSP ships at most
// 2.2× the bytes of the same session through one center. A query that
// meets no source's extent contacts no center, and one in an extent a put
// has just grown reaches that source's owner.
func TestClusterCommBudget(t *testing.T) {
	// Datasets and queries of a few hundred cells, as real ones are: the
	// relay adds a source and a method name per call, which only payloads
	// of a handful of cells would make look expensive.
	rng := rand.New(rand.NewSource(24))
	blob := func(cx, cy int) cellset.Set {
		ids := make([]uint64, 100+rng.Intn(300))
		for j := range ids {
			ids[j] = geo.ZEncode(uint32(clamp(cx+rng.Intn(25)-12, 0, 127)), uint32(clamp(cy+rng.Intn(25)-12, 0, 127)))
		}
		return cellset.New(ids...)
	}
	var servers []*SourceServer
	for s := 0; s < 4; s++ {
		var nodes []*dataset.Node
		for i := 0; i < 60; i++ {
			nodes = append(nodes, dataset.NewNodeFromCells(s*10000+i, "", blob(rng.Intn(128), s*32+rng.Intn(48))))
		}
		servers = append(servers, NewSourceServerWithGrid(srcName(s), dits.Build(worldGrid(), nodes, 8)))
	}
	single := NewCenter(worldGrid(), DefaultOptions())
	for _, srv := range servers {
		single.Register(srv.Summary(), &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: single.Metrics})
	}
	p := newPlane(t, planeConfig{centers: 3, servers: servers})
	fanouts := relayBudget(t, p)
	ctx := context.Background()
	registration := p.hop.Bytes() + p.links.Bytes()
	for trial := 0; trial < 15; trial++ {
		q := blob(rng.Intn(128), rng.Intn(128))
		want, err := single.CoverageSearch(ctx, q, 4, 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.cluster.CoverageSearch(ctx, q, 4, 6)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("trial %d picks", trial), got.Picked, want.Picked)
	}
	sb, cb := single.Metrics.Bytes(), p.hop.Bytes()+p.links.Bytes()-registration
	t.Logf("15 CJSPs: %d bytes through one center, %d through the cluster (%.2f×), %d fan-outs",
		sb, cb, float64(cb)/float64(sb), fanouts[MethodCoverageRound])
	if float64(cb) > 2.2*float64(sb) {
		t.Errorf("clustered CJSPs shipped %d bytes, more than 2.2× the single center's %d", cb, sb)
	}
	for trial := 0; trial < 15; trial++ {
		q := blob(rng.Intn(128), rng.Intn(128))
		want, err := single.OverlapSearch(ctx, q, 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.cluster.OverlapSearch(ctx, q, 6)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("trial %d top-k", trial), got, want)
	}
	batch := []BatchQuery{{Cells: blob(20, 20), K: 4}, {Cells: blob(100, 60), K: 8}, {Cells: blob(60, 110), K: 2}}
	want, err := single.OverlapSearchBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.cluster.OverlapSearchBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		sameResults(t, fmt.Sprintf("batch query %d", i), got[i], want[i])
	}
	for _, method := range []string{MethodCoverageRound, MethodFetchCells, MethodOverlap, MethodSearchBatch} {
		if fanouts[method] == 0 {
			t.Errorf("no %s fan-out went through the relay", method)
		}
		if a, b := calls(single.Metrics, method), calls(p.links, method); a != b {
			t.Errorf("%s: %d calls through one center, %d through the cluster", method, a, b)
		}
	}
	if n := calls(p.links, MethodCoverage); n != 0 {
		t.Errorf("the clustered path made %d stateless coverage.best calls", n)
	}

	// Pruning and mutations, on sources compact enough that candidates are
	// certain.
	cp := newPlane(t, planeConfig{centers: 3, servers: cornerServers(t)})
	cfan := relayBudget(t, cp)
	centerCalls := func(q func()) (n int64) {
		for _, sw := range cp.centers {
			n -= sw.calls.Load()
		}
		q()
		for _, sw := range cp.centers {
			n += sw.calls.Load()
		}
		return n
	}
	if n := centerCalls(func() {
		if rs, err := cp.cluster.OverlapSearch(ctx, cellsNear(8, 8, 8), 3); err != nil || len(rs) == 0 {
			t.Fatalf("query inside a: %v, err %v", rs, err)
		}
	}); n != 1 {
		t.Errorf("a query inside exactly one source's extent made %d center calls, want 1", n)
	}
	inA := []BatchQuery{{Cells: cellsNear(8, 8, 8), K: 2}, {Cells: cellsNear(9, 9, 8), K: 2}}
	if n := centerCalls(func() { cp.cluster.OverlapSearchBatch(ctx, inA) }); n != 1 {
		t.Errorf("a batch whose queries all sit in one source made %d center calls, want 1", n)
	}
	grown := cellsNear(110, 8, 8)
	if n := centerCalls(func() {
		cp.cluster.OverlapSearch(ctx, grown, 3)
		cp.cluster.OverlapSearchBatch(ctx, []BatchQuery{{Cells: grown, K: 3}})
	}); n != 0 {
		t.Errorf("queries meeting no source's extent made %d center calls, want 0", n)
	}
	owner := cp.centers[cp.cluster.Stats().SourceOwners["a"]]
	if n := centerCalls(func() {
		if _, err := cp.cluster.PutDataset(ctx, "a", 888, "grown", grown); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("a put made %d center calls, want 1", n)
	}
	before := owner.calls.Load()
	if n := centerCalls(func() {
		rs, err := cp.cluster.OverlapSearch(ctx, grown, 3)
		if err != nil || len(rs) != 1 || rs[0].ID != 888 {
			t.Fatalf("query in the grown extent: %v, err %v", rs, err)
		}
	}); n != 1 || owner.calls.Load()-before != 1 {
		t.Errorf("a query in an extent a put just grew made %d center calls, %d to the source's owner; want 1 and 1",
			n, owner.calls.Load()-before)
	}
	if _, err := cp.cluster.DeleteDataset(ctx, "a", 888); err != nil {
		t.Fatal(err)
	}
	if cfan[MethodDatasetPut] != 1 || cfan[MethodDatasetDelete] != 1 {
		t.Errorf("mutation fan-outs: %v, want one put and one delete", cfan)
	}
}

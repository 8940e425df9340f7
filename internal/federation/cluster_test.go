package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/transport"
)

// switchPeer wraps a peer with a kill switch: once down, every call fails
// with a plain (non-Remote) error, exactly like a dead TCP endpoint.
type switchPeer struct {
	inner transport.Peer
	down  atomic.Bool
	calls atomic.Int64
}

func (p *switchPeer) Call(ctx context.Context, method string, req, resp any) error {
	p.calls.Add(1)
	if p.down.Load() {
		return errors.New("connection refused")
	}
	return p.inner.Call(ctx, method, req, resp)
}

func (p *switchPeer) Close() error { return nil }

// clusterPlane is a full in-process cluster topology plus the
// single-center oracle built over the SAME source servers, so every
// comparison is between two views of identical data.
type clusterPlane struct {
	oracle   *Center
	cluster  *Cluster
	servers  []*SourceServer
	switches map[string]*switchPeer
}

// buildClusterPlane wires numCenters CenterServers over the m sources of a
// buildFederation world and shards them with a Cluster.
func buildClusterPlane(t *testing.T, seed int64, numCenters, m, perSource int) *clusterPlane {
	t.Helper()
	oracle, _, servers := buildFederation(rand.New(rand.NewSource(seed)), m, perSource, DefaultOptions())
	cluster, switches := newTestCluster(t, worldGrid(), numCenters, servers, "")
	addSources(t, cluster, servers)
	return &clusterPlane{oracle: oracle, cluster: cluster, servers: servers, switches: switches}
}

// newTestCluster builds a Cluster on grid g over numCenters grid-less
// CenterServers, as ditscenter runs them, each dialing a source of
// servers by its name; with a logDir, center-i keeps its membership log at
// logDir/center-i.log. The roster starts empty.
func newTestCluster(t *testing.T, g geo.Grid, numCenters int, servers []*SourceServer, logDir string) (*Cluster, map[string]*switchPeer) {
	t.Helper()
	peers := make(map[string]transport.Peer, numCenters)
	switches := make(map[string]*switchPeer, numCenters)
	for i := 0; i < numCenters; i++ {
		name := fmt.Sprintf("center-%d", i)
		cs := openTestCenter(t, name, servers, logDir)
		sp := &switchPeer{inner: &transport.InProc{
			Name: name, Handler: cs.Handler(), Metrics: &transport.Metrics{},
		}}
		peers[name] = sp
		switches[name] = sp
	}
	return NewCluster(g, peers), switches
}

// openTestCenter opens one grid-less CenterServer of newTestCluster,
// replaying its membership log if logDir holds one.
func openTestCenter(t *testing.T, name string, servers []*SourceServer, logDir string) *CenterServer {
	t.Helper()
	byName := make(map[string]*SourceServer, len(servers))
	for _, s := range servers {
		byName[s.Name] = s
	}
	c := NewCenter(geo.Grid{}, Options{})
	opts := CenterServerOptions{
		Dial: func(addr string) (transport.Peer, error) {
			srv, ok := byName[addr]
			if !ok {
				return nil, fmt.Errorf("no source at %q", addr)
			}
			return &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: c.Metrics}, nil
		},
	}
	if logDir != "" {
		opts.MemberLog = filepath.Join(logDir, name+".log")
	}
	cs, err := NewCenterServer(name, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	return cs
}

// addSources adds every server to the cluster's roster under its name.
func addSources(t *testing.T, cluster *Cluster, servers []*SourceServer) {
	t.Helper()
	for _, srv := range servers {
		if err := cluster.AddSource(context.Background(), ClusterSource{Name: srv.Name, Addr: srv.Name}); err != nil {
			t.Fatal(err)
		}
	}
}

func sameResults(t *testing.T, label string, got, want []SourceResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d\n  got  %v\n  want %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s result %d: %+v, oracle %+v", label, i, got[i], want[i])
		}
	}
}

// TestClusterParityWithSingleCenter: scattering across 2 and 3 centers
// with uneven shards must reproduce the single-center answers byte for
// byte — OJSP top-k, batches, and the full CJSP greedy trajectory.
func TestClusterParityWithSingleCenter(t *testing.T) {
	for _, numCenters := range []int{2, 3} {
		t.Run(fmt.Sprintf("centers=%d", numCenters), func(t *testing.T) {
			// 5 sources cannot split evenly over 2 or 3 centers, so the
			// shards are guaranteed uneven.
			p := buildClusterPlane(t, 21, numCenters, 5, 80)
			shards := p.cluster.Shards()
			sizes := make(map[int]bool)
			total := 0
			for _, srcs := range shards {
				sizes[len(srcs)] = true
				total += len(srcs)
			}
			if total != 5 {
				t.Fatalf("shards cover %d sources, want 5: %v", total, shards)
			}
			if len(shards) > 1 && len(sizes) < 2 {
				t.Fatalf("shards unexpectedly even: %v", shards)
			}

			rng := rand.New(rand.NewSource(31))
			ctx := context.Background()
			for trial := 0; trial < 20; trial++ {
				q := randomQuery(rng)
				for _, k := range []int{1, 5, 20} {
					want, err := p.oracle.OverlapSearch(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.cluster.OverlapSearch(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, fmt.Sprintf("trial %d k=%d", trial, k), got, want)
				}
				for _, delta := range []float64{0, 2, 6} {
					want, err := p.oracle.CoverageSearch(ctx, q, delta, 4)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.cluster.CoverageSearch(ctx, q, delta, 4)
					if err != nil {
						t.Fatal(err)
					}
					if got.Coverage != want.Coverage || got.QueryCoverage != want.QueryCoverage {
						t.Fatalf("trial %d δ=%v: coverage %d/%d, oracle %d/%d",
							trial, delta, got.Coverage, got.QueryCoverage, want.Coverage, want.QueryCoverage)
					}
					sameResults(t, fmt.Sprintf("trial %d δ=%v picks", trial, delta), got.Picked, want.Picked)
				}
			}

			// Batches merge per query index.
			batch := []BatchQuery{
				{Cells: randomQuery(rng), K: 3},
				{Cells: randomQuery(rng), K: 1},
				{Cells: randomQuery(rng), K: 10},
				{Cells: nil, K: 5},
			}
			want, err := p.oracle.OverlapSearchBatch(ctx, batch)
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
		})
	}
}

// TestClusterKBoundaryTies: datasets tying exactly at the k boundary must
// be broken identically by the scatter/gather merge and the single center
// — the (overlap, source, id) total order leaves no room for shard
// placement to leak into the answer.
func TestClusterKBoundaryTies(t *testing.T) {
	g := worldGrid()
	tie := cellsNear(20, 20, 9)
	oracle := NewCenter(g, DefaultOptions())
	var servers []*SourceServer
	byName := make(map[string]*SourceServer)
	// Six sources, two datasets each, all with the SAME cell set: every
	// dataset overlaps the query by exactly 9, so any k below 12 cuts
	// through a full tie group.
	for s := 0; s < 6; s++ {
		name := srcName(s)
		nodes := []*dataset.Node{
			dataset.NewNodeFromCells(s*100+1, "t1", tie),
			dataset.NewNodeFromCells(s*100+2, "t2", tie),
		}
		srv := NewSourceServerWithGrid(name, dits.Build(g, nodes, 4))
		servers = append(servers, srv)
		byName[name] = srv
		oracle.Register(srv.Summary(), &transport.InProc{Name: name, Handler: srv.Handler(), Metrics: oracle.Metrics})
	}
	cluster, _ := newTestCluster(t, g, 3, servers, "")
	addSources(t, cluster, servers)
	// The tie group must actually straddle centers for the test to bite.
	if owners := cluster.Stats().SourceOwners; len(owners) != 6 {
		t.Fatalf("owners = %v", owners)
	} else {
		distinct := make(map[string]bool)
		for _, c := range owners {
			distinct[c] = true
		}
		if len(distinct) < 2 {
			t.Fatalf("all sources landed on one center, ties never cross shards: %v", owners)
		}
	}
	ctx := context.Background()
	for _, k := range []int{1, 3, 5, 11, 12, 40} {
		want, err := oracle.OverlapSearch(ctx, tie, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.OverlapSearch(ctx, tie, k)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("k=%d", k), got, want)
		if k <= 12 && len(got) != k {
			t.Fatalf("k=%d returned %d results with 12 available", k, len(got))
		}
	}
	// CJSP over an all-tie corpus: every greedy pick is a pure tie-break.
	want, err := oracle.CoverageSearch(ctx, tie, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.CoverageSearch(ctx, tie, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "coverage picks", got.Picked, want.Picked)
	if got.Coverage != want.Coverage {
		t.Fatalf("coverage %d, oracle %d", got.Coverage, want.Coverage)
	}
}

// TestClusterAddSourceRefusesOtherGrid: a source gridded at the gateway's
// θ over other bounds uses the same cell IDs for other cells. The grid-less
// relay center adopts it, but AddSource refuses it: the roster, the shards,
// the owners and the answers stay as they were. A cluster built on the zero
// grid adopts its first source's grid, answers as the gridded one does, and
// refuses the stray source the same way.
func TestClusterAddSourceRefusesOtherGrid(t *testing.T) {
	g := worldGrid()
	_, _, servers := buildFederation(rand.New(rand.NewSource(3)), 3, 20, DefaultOptions())
	other := geo.NewGrid(g.Theta, geo.Rect{MaxX: 2 * float64(g.Side()), MaxY: 2 * float64(g.Side())})
	// A dataset far from the grid's origin: its answer needs the grid.
	q := servers[2].Index.Get(20000).Cells
	stray := NewSourceServerWithGrid("stray", dits.Build(other, []*dataset.Node{dataset.NewNodeFromCells(1, "s", q)}, 4))
	ctx := context.Background()
	var want []SourceResult
	for i, built := range []geo.Grid{g, {}} {
		cluster, _ := newTestCluster(t, built, 3, append(servers, stray), "")
		addSources(t, cluster, servers)
		if cluster.Grid != g {
			t.Fatalf("cluster built on grid %v runs on %v, want %v", built, cluster.Grid, g)
		}
		before, err := cluster.OverlapSearch(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = before
		}
		sameResults(t, fmt.Sprintf("built on grid %v", built), before, want)
		n, shards := cluster.NumSources(), cluster.Shards()

		if err := cluster.AddSource(ctx, ClusterSource{Name: "stray", Addr: "stray"}); err == nil {
			t.Fatalf("built on grid %v: AddSource took a source on another grid", built)
		}
		if got := cluster.NumSources(); got != n {
			t.Errorf("NumSources = %d after the refusal, want %d", got, n)
		}
		if got := cluster.Shards(); !reflect.DeepEqual(got, shards) {
			t.Errorf("Shards = %v after the refusal, want %v", got, shards)
		}
		if owner, ok := cluster.Stats().SourceOwners["stray"]; ok {
			t.Errorf("refused source owned by %s", owner)
		}
		got, err := cluster.OverlapSearch(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("built on grid %v, after the refusal", built), got, want)
	}
}

// TestClusterCenterRefusesStray: a source on another grid is refused by
// the center that would own it, before it adopts the source — so after
// the refusal no center lists it in cluster.info, no membership log holds
// it, and no restarted center adopts it.
func TestClusterCenterRefusesStray(t *testing.T) {
	g := worldGrid()
	_, _, servers := buildFederation(rand.New(rand.NewSource(3)), 3, 20, DefaultOptions())
	other := geo.NewGrid(g.Theta, geo.Rect{MaxX: 2 * float64(g.Side()), MaxY: 2 * float64(g.Side())})
	stray := NewSourceServerWithGrid("stray", dits.Build(other, []*dataset.Node{dataset.NewNodeFromCells(1, "s", cellsNear(20, 20, 9))}, 4))
	servers = append(servers, stray)
	logDir := t.TempDir()
	cluster, switches := newTestCluster(t, g, 3, servers, logDir)
	addSources(t, cluster, servers[:3])
	ctx := context.Background()
	if err := cluster.AddSource(ctx, ClusterSource{Name: "stray", Addr: "stray"}); err == nil {
		t.Fatal("AddSource took a source on another grid")
	}
	readopted := 0
	for name, sp := range switches {
		var info ClusterInfoResponse
		if err := sp.Call(ctx, MethodClusterInfo, nil, &info); err != nil {
			t.Fatal(err)
		}
		for _, s := range info.Shard {
			if s.Summary.Name == "stray" {
				t.Errorf("%s: cluster.info lists the refused source", name)
			}
		}
		log, events, err := OpenMemberLog(filepath.Join(logDir, name+".log"))
		if err != nil {
			t.Fatal(err)
		}
		log.Close()
		for _, ev := range events {
			if ev.Name == "stray" {
				t.Errorf("%s: the member log holds the refused source", name)
			}
		}
		cs := openTestCenter(t, name, servers, logDir)
		if _, ok := cs.center.epoch.Load().members["stray"]; ok {
			t.Errorf("%s: a restart adopted the refused source", name)
		}
		readopted += cs.center.NumSources()
	}
	if readopted != 3 {
		t.Errorf("restarted centers adopted %d sources, want the 3 registered", readopted)
	}
}

// TestClusterStatelessCJSPIsNotRelayed: with sessions off a clustered CJSP
// asks its sources for coverage.best, which cluster.forward does not carry:
// the query fails naming it, and no center is sent the call or failed over.
func TestClusterStatelessCJSPIsNotRelayed(t *testing.T) {
	p := buildClusterPlane(t, 5, 3, 4, 40)
	opts := DefaultOptions()
	opts.Sessions = false
	p.cluster.SetOptions(opts)
	sent := func() (n int64) {
		for _, sp := range p.switches {
			n += sp.calls.Load()
		}
		return n
	}
	before := sent()
	_, err := p.cluster.CoverageSearch(context.Background(), p.servers[0].Index.Get(0).Cells, 10, 3)
	if err == nil || !strings.Contains(err.Error(), `does not relay "coverage.best"`) {
		t.Fatalf("stateless CJSP through the cluster: err = %v", err)
	}
	if n := sent() - before; n != 0 {
		t.Errorf("%d calls reached the centers", n)
	}
	if st := p.cluster.Stats(); st.Failovers != 0 || st.Healthy != 3 {
		t.Errorf("stats after the refusal: %+v", st)
	}
}

// TestClusterCenterFailover kills centers one by one: queries must keep
// answering with single-center parity after each re-homing, mutations must
// re-route to the new owner, and the last kill must surface ErrNoCenters.
func TestClusterCenterFailover(t *testing.T) {
	p := buildClusterPlane(t, 41, 3, 5, 60)
	// Make the sources mutable so post-failover writes can be proven.
	for _, srv := range p.servers {
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
	ctx := context.Background()
	rng := rand.New(rand.NewSource(51))
	q := randomQuery(rng)
	check := func(label string) {
		t.Helper()
		want, err := p.oracle.OverlapSearch(ctx, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.cluster.OverlapSearch(ctx, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label, got, want)
	}
	check("before failover")

	// Kill the center owning the source of q's best answer, so the next
	// query's fan-out must reach it: it detects the dead center in-band,
	// re-homes its shard, and still answers.
	best, err := p.oracle.OverlapSearch(ctx, q, 1)
	if err != nil || len(best) == 0 {
		t.Fatalf("oracle: %v, err %v", best, err)
	}
	movedSource := best[0].Source
	victim := p.cluster.Stats().SourceOwners[movedSource]
	p.switches[victim].down.Store(true)
	check("after in-band failover")
	st := p.cluster.Stats()
	if st.Healthy != 2 || st.Failovers < 1 || st.Generation == 0 {
		t.Fatalf("stats after kill = %+v", st)
	}
	for src, c := range st.SourceOwners {
		if c == victim {
			t.Fatalf("source %s still owned by dead center %s", src, c)
		}
	}
	if len(st.SourceOwners) != 5 {
		t.Fatalf("%d sources owned after re-homing, want 5: %v", len(st.SourceOwners), st.SourceOwners)
	}

	// A write to a source the dead center used to own re-routes to the
	// re-homed owner and is immediately visible in reads.
	spot := cellsNear(40, 40, 7)
	res, err := p.cluster.PutDataset(ctx, movedSource, 990001, "post-failover", spot)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version == 0 {
		t.Fatalf("put result = %+v", res)
	}
	if got := p.cluster.SourceVersions()[movedSource]; got != res.Version {
		t.Fatalf("acked version vector holds %d, want %d", got, res.Version)
	}
	rs, err := p.cluster.OverlapSearch(ctx, spot, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].ID != 990001 || rs[0].Source != movedSource {
		t.Fatalf("post-failover write not visible: %v", rs)
	}
	if _, err := p.cluster.DeleteDataset(ctx, movedSource, 990001); err != nil {
		t.Fatal(err)
	}

	// Kill a second center, detected by the health probe this time.
	var second string
	for name, sp := range p.switches {
		if name != victim && !sp.down.Load() {
			second = name
			break
		}
	}
	p.switches[second].down.Store(true)
	if downed := p.cluster.Probe(ctx); downed != 1 {
		t.Fatalf("probe marked %d centers down, want 1", downed)
	}
	check("single surviving center")
	if st := p.cluster.Stats(); st.Healthy != 1 {
		t.Fatalf("stats after second kill = %+v", st)
	}

	// Killing the last center leaves nothing to serve from.
	for _, sp := range p.switches {
		sp.down.Store(true)
	}
	if _, err := p.cluster.OverlapSearch(ctx, q, 3); !errors.Is(err, ErrNoCenters) {
		t.Fatalf("all centers dead: err = %v, want ErrNoCenters", err)
	}
	if _, err := p.cluster.PutDataset(ctx, movedSource, 1, "x", spot); !errors.Is(err, ErrNoCenters) {
		t.Fatalf("mutation with all centers dead: err = %v, want ErrNoCenters", err)
	}
	// Unknown sources still map to ErrUnknownSource, not ErrNoCenters.
	if _, err := p.cluster.PutDataset(ctx, "nope", 1, "x", spot); !errors.Is(err, ErrUnknownSource) {
		t.Fatalf("unknown source: err = %v, want ErrUnknownSource", err)
	}
}

// TestReplicatedPeerFailover: reads fail over past a dead primary, stick
// to the serving replica, refuse to fail over on RemoteErrors, and
// mutations always pin to the primary.
func TestReplicatedPeerFailover(t *testing.T) {
	g := worldGrid()
	nd := dataset.NewNodeFromCells(7, "r", cellsNear(12, 12, 5))
	srv := NewSourceServerWithGrid("rsrc", dits.Build(g, []*dataset.Node{nd}, 4))
	primary := &switchPeer{inner: &transport.InProc{Name: "rsrc", Handler: srv.Handler()}}
	replica := &switchPeer{inner: &transport.InProc{Name: "rsrc", Handler: srv.Handler()}}
	rp := NewReplicatedPeer("rsrc", primary, replica)
	ctx := context.Background()

	var resp VersionResponse
	if err := rp.Call(ctx, MethodSourceVersion, nil, &resp); err != nil {
		t.Fatal(err)
	}
	if replica.calls.Load() != 0 {
		t.Fatal("healthy primary: replica should not be contacted")
	}

	// Dead primary: the read fails over, and the NEXT read goes straight
	// to the replica (sticky index, no re-dial against the corpse).
	primary.down.Store(true)
	if err := rp.Call(ctx, MethodSourceVersion, nil, &resp); err != nil {
		t.Fatal(err)
	}
	before := primary.calls.Load()
	if err := rp.Call(ctx, MethodSourceVersion, nil, &resp); err != nil {
		t.Fatal(err)
	}
	if primary.calls.Load() != before {
		t.Fatal("reads after failover must stick to the replica")
	}

	// Mutations pin to the primary: with it down they fail even though the
	// replica is reachable — failing a write over would fork the history.
	if err := rp.Call(ctx, MethodDatasetPut, &DatasetPutRequest{ID: 9, Cells: cellsNear(1, 1, 3)}, &MutateResponse{}); err == nil {
		t.Fatal("mutation must not fail over to a replica")
	}

	// A RemoteError comes back verbatim: the endpoint answered, so trying
	// elsewhere would turn a deterministic error into a different answer.
	primary.down.Store(false)
	rp2 := NewReplicatedPeer("rsrc", primary, replica)
	err := rp2.Call(ctx, MethodWALShip, &WALShipRequest{}, &WALShipResponse{})
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("storeless wal.ship: err = %v, want RemoteError", err)
	}

	// Every endpoint dead: the wrapped error names the source.
	primary.down.Store(true)
	replica.down.Store(true)
	if err := rp.Call(ctx, MethodSourceVersion, nil, &resp); err == nil {
		t.Fatal("all endpoints dead must error")
	}
}

// TestReplicatorCatchUpOverTransport drives the WAL-shipping loop through
// the real source handler: a replica store pulls the primary's tail keyed
// on its own version, applies idempotently, and resumes across restarts
// without duplicate applies.
func TestReplicatorCatchUpOverTransport(t *testing.T) {
	g := worldGrid()
	empty := func() (*dits.Local, error) { return dits.Build(g, nil, 4), nil }
	primarySt, err := ingest.Open(t.TempDir(), ingest.Options{
		Fsync: ingest.FsyncNever, SnapshotEvery: -1, Bootstrap: empty,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primarySt.Close()
	srv := NewSourceServerWithGrid("p", primarySt.Index())
	srv.EnableIngest(primarySt)
	peer := &switchPeer{inner: &transport.InProc{Name: "p", Handler: srv.Handler()}}

	for i := 1; i <= 10; i++ {
		if _, err := primarySt.PutDataset(i, "d", cellsNear(i, i, 4)); err != nil {
			t.Fatal(err)
		}
	}

	replicaDir := t.TempDir()
	openReplica := func() *ingest.Store {
		st, err := ingest.Open(replicaDir, ingest.Options{
			Fsync: ingest.FsyncNever, SnapshotEvery: -1, Replica: true, Bootstrap: empty,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	replicaSt := openReplica()
	r := &Replicator{Store: replicaSt, Primary: peer}
	ctx := context.Background()

	applied, err := r.CatchUpOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 10 || replicaSt.Version() != primarySt.Version() {
		t.Fatalf("caught up %d records to version %d, primary at %d",
			applied, replicaSt.Version(), primarySt.Version())
	}
	// A replica store refuses local mutations — its history comes only
	// from the primary.
	if _, err := replicaSt.PutDataset(99, "x", cellsNear(2, 2, 3)); !errors.Is(err, ingest.ErrReplica) {
		t.Fatalf("replica local mutation: err = %v, want ErrReplica", err)
	}

	// New primary writes: the next pull ships only the delta.
	for i := 11; i <= 15; i++ {
		if _, err := primarySt.PutDataset(i, "d", cellsNear(i, i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if applied, err = r.CatchUpOnce(ctx); err != nil || applied != 5 {
		t.Fatalf("delta pull applied %d (err %v), want 5", applied, err)
	}

	// Restart the replica mid-stream: it resumes from its persisted
	// version — zero duplicate applies, then exactly the new delta.
	if err := replicaSt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := primarySt.PutDataset(16, "d", cellsNear(16, 16, 4)); err != nil {
		t.Fatal(err)
	}
	replicaSt = openReplica()
	defer replicaSt.Close()
	r = &Replicator{Store: replicaSt, Primary: peer}
	if applied, err = r.CatchUpOnce(ctx); err != nil || applied != 1 {
		t.Fatalf("post-restart pull applied %d (err %v), want exactly 1", applied, err)
	}
	if replicaSt.Version() != primarySt.Version() {
		t.Fatalf("replica at %d, primary at %d", replicaSt.Version(), primarySt.Version())
	}

	// The caught-up replica serves the primary's exact corpus.
	rsrv := NewSourceServerWithGrid("p", replicaSt.Index())
	rsrv.EnableIngest(replicaSt)
	q := cellsNear(13, 13, 4)
	oracle := NewCenter(g, DefaultOptions())
	oracle.Register(srv.Summary(), &transport.InProc{Name: "p", Handler: srv.Handler(), Metrics: oracle.Metrics})
	want, err := oracle.OverlapSearch(ctx, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	promoted := NewCenter(g, DefaultOptions())
	promoted.Register(rsrv.Summary(), &transport.InProc{Name: "p", Handler: rsrv.Handler(), Metrics: promoted.Metrics})
	got, err := promoted.OverlapSearch(ctx, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "promoted replica", got, want)

	// A dead primary surfaces as a transport error the Run loop retries.
	peer.down.Store(true)
	if _, err := r.CatchUpOnce(ctx); err == nil {
		t.Fatal("pull from a dead primary must error")
	}
}

// TestCenterServerMemberLogRestart: a restarted center re-adopts its
// logged shard without any gateway involvement, a member that cannot be
// re-dialed is skipped (not fatal), and unregistrations survive too.
func TestCenterServerMemberLogRestart(t *testing.T) {
	g := worldGrid()
	byName := make(map[string]*SourceServer)
	for s := 0; s < 2; s++ {
		name := srcName(s)
		nd := dataset.NewNodeFromCells(s+1, "m", cellsNear(10+s*20, 10, 6))
		byName[name] = NewSourceServerWithGrid(name, dits.Build(g, []*dataset.Node{nd}, 4))
	}
	logPath := filepath.Join(t.TempDir(), "members.log")
	dial := func(addr string) (transport.Peer, error) {
		srv, ok := byName[addr]
		if !ok {
			return nil, fmt.Errorf("no source at %q", addr)
		}
		return &transport.InProc{Name: srv.Name, Handler: srv.Handler()}, nil
	}
	open := func() *CenterServer {
		cs, err := NewCenterServer("c0", NewCenter(g, DefaultOptions()), CenterServerOptions{
			MemberLog: logPath, Dial: dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	ctx := context.Background()
	cs := open()
	gate := &transport.InProc{Name: "c0", Handler: cs.Handler()}
	for name := range byName {
		var summary dits.SourceSummary
		if err := gate.Call(ctx, MethodClusterRegister, &ClusterRegisterRequest{Name: name, Addr: name}, &summary); err != nil {
			t.Fatal(err)
		}
		if summary.Name != name {
			t.Fatalf("cluster.register answered the summary of %q, want %q", summary.Name, name)
		}
	}
	if n := cs.center.NumSources(); n != 2 {
		t.Fatalf("registered %d sources, want 2", n)
	}
	cs.Close()

	// Restart: the shard comes back from the log alone.
	cs = open()
	if n := cs.center.NumSources(); n != 2 {
		t.Fatalf("after restart %d sources, want 2", n)
	}
	if len(cs.Skipped()) != 0 {
		t.Fatalf("skipped = %v, want none", cs.Skipped())
	}
	rs, err := cs.center.OverlapSearch(ctx, cellsNear(10, 10, 6), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("re-adopted sources must answer queries")
	}
	cs.Close()

	// A logged member whose endpoint is gone at boot is skipped, and the
	// rest of the shard still comes up.
	log, _, err := OpenMemberLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(MemberEvent{Op: MemberJoin, Name: "ghost", Addr: "ghost"}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	cs = open()
	defer cs.Close()
	if got := cs.Skipped(); len(got) != 1 || got[0] != "ghost" {
		t.Fatalf("skipped = %v, want [ghost]", got)
	}
	if n := cs.center.NumSources(); n != 2 {
		t.Fatalf("with ghost member %d sources, want 2", n)
	}
}

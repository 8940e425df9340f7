package integration

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dits/internal/admission"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/transport"
)

// TestClusterSoakKillCenterAndSourceUnderLoad is the cluster chaos soak:
// a three-center sharded plane over real TCP, one source replicated via
// WAL shipping, sustained mixed load through the gateway while (1) the
// center owning the largest shard is killed and (2) the replicated
// source's primary is killed. Both failovers are in-band, so the load
// must finish with ZERO failed requests — no 5xx, no net errors — and a
// dataset ingested just before the source kill must be visible on the
// very next read (no stale reads: the replica is drained to the
// primary's acked version first). Afterwards the degraded plane must
// still answer byte-identically to a single-center oracle.
func TestClusterSoakKillCenterAndSourceUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak drives sustained load over real TCP; not short")
	}
	grid := geo.NewGrid(soakTheta, geo.Rect{MinX: 0, MinY: 0, MaxX: soakSide, MaxY: soakSide})
	empty := func() (*dits.Local, error) { return dits.Build(grid, nil, 8), nil }
	ctx := context.Background()

	// alpha: mutable and replicated. The primary bootstraps empty and is
	// seeded through PutDataset so its WAL carries the full history the
	// replica ships.
	alphaNodes := soakNodes(rand.New(rand.NewSource(11)), 0, 2, 44)
	primarySt, err := ingest.Open(t.TempDir(), ingest.Options{
		Fsync: ingest.FsyncNever, SnapshotEvery: -1, Bootstrap: empty,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primarySt.Close()
	for _, nd := range alphaNodes {
		if _, err := primarySt.PutDataset(nd.ID, nd.Name, nd.Cells); err != nil {
			t.Fatal(err)
		}
	}
	alphaSrv := federation.NewSourceServerWithGrid("alpha", primarySt.Index())
	alphaSrv.EnableIngest(primarySt)
	tsAlpha, err := transport.Serve("127.0.0.1:0", alphaSrv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer tsAlpha.Close()

	replicaSt, err := ingest.Open(t.TempDir(), ingest.Options{
		Fsync: ingest.FsyncNever, SnapshotEvery: -1, Replica: true, Bootstrap: empty,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replicaSt.Close()
	replicaSrv := federation.NewSourceServerWithGrid("alpha", replicaSt.Index())
	replicaSrv.EnableIngest(replicaSt)
	tsReplica, err := transport.Serve("127.0.0.1:0", replicaSrv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer tsReplica.Close()
	primaryPool := transport.DialPool("alpha", tsAlpha.Addr(), 2, &transport.Metrics{})
	defer primaryPool.Close()
	repl := &federation.Replicator{Store: replicaSt, Primary: primaryPool, Interval: 20 * time.Millisecond}
	replCtx, replStop := context.WithCancel(ctx)
	defer replStop()
	go repl.Run(replCtx)

	// bravo and charlie: static sources on the middle and right thirds.
	firstNode := map[string]*dataset.Node{"alpha": alphaNodes[0]}
	staticSrvs := make(map[string]*federation.SourceServer)
	staticAddr := make(map[string]string)
	var staticNodes []*dataset.Node
	for _, spec := range []struct {
		name   string
		lo, hi int
		idBase int
		seed   int64
	}{
		{"bravo", 44, 86, 1000, 12},
		{"charlie", 86, 126, 2000, 13},
	} {
		nodes := soakNodes(rand.New(rand.NewSource(spec.seed)), spec.idBase, spec.lo, spec.hi)
		staticNodes = append(staticNodes, nodes...)
		firstNode[spec.name] = nodes[0]
		srv := federation.NewSourceServerWithGrid(spec.name, dits.Build(grid, nodes, 8))
		staticSrvs[spec.name] = srv
		ts, err := transport.Serve("127.0.0.1:0", srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		staticAddr[spec.name] = ts.Addr()
	}

	// Three centers over real TCP, each with a durable membership log.
	met := &transport.Metrics{}
	peers := make(map[string]transport.Peer, 3)
	centerTS := make(map[string]*transport.Server, 3)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("center-%d", i)
		c := federation.NewCenter(grid, federation.Options{GlobalFilter: true, ClipQuery: true, Sessions: true})
		cs, err := federation.NewCenterServer(name, c, federation.CenterServerOptions{
			MemberLog: filepath.Join(t.TempDir(), "members.log"),
			PoolSize:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cs.Close()
		ts, err := transport.Serve("127.0.0.1:0", cs.Handler())
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		centerTS[name] = ts
		peers[name] = transport.DialPool(name, ts.Addr(), 4, met)
	}
	cluster := federation.NewCluster(grid, peers)
	cluster.Metrics = met
	defer cluster.Close()
	for _, src := range []federation.ClusterSource{
		{Name: "alpha", Addr: tsAlpha.Addr(), Replicas: []string{tsReplica.Addr()}},
		{Name: "bravo", Addr: staticAddr["bravo"]},
		{Name: "charlie", Addr: staticAddr["charlie"]},
	} {
		if err := cluster.AddSource(ctx, src); err != nil {
			t.Fatal(err)
		}
	}

	gw := gateway.NewCluster(cluster, gateway.Options{
		Admission: admission.Config{Rate: 5000, Burst: 1000, Deadline: 5 * time.Second},
	})
	hs := httptest.NewServer(gw.Handler())
	defer hs.Close()

	// Phase 1 — mixed load (searches + ingest into alpha) across a center
	// kill, which lands once the load is under way. The victim owns the
	// largest shard, forcing the worst re-home.
	ld := startSoakLoad(ctx, t, hs.URL, [4]float64{0.55, 0.2, 0.1, 0.15}, 1600*time.Millisecond, 43, "cluster-soak")

	victim, shard := "", []string(nil)
	for name, srcs := range cluster.Shards() {
		if len(srcs) > len(shard) {
			victim, shard = name, srcs
		}
	}
	centerTS[victim].Close()

	// The very next uncached query must succeed: failover is in-band. It
	// asks for a dataset of the victim's shard, so its fan-out reaches the
	// dead center.
	probe := searchRequest{Points: cellPoints(grid, firstNode[shard[0]]), K: 9}
	var probeResp gateway.OverlapResponse
	if code := soakPost(t, hs.URL+"/search/overlap", probe, &probeResp); code != http.StatusOK {
		t.Fatalf("first query after center kill = %d, want 200", code)
	}
	if st := cluster.Stats(); st.Healthy != 2 || st.Failovers < 1 {
		t.Fatalf("post-kill stats: healthy=%d failovers=%d, want 2 and >=1", st.Healthy, st.Failovers)
	}

	// Mid-incident observability: the cluster gauges and health page must
	// reflect the degraded plane.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := make([]byte, 1<<20)
	n, _ := mresp.Body.Read(mb)
	mresp.Body.Close()
	exposition := string(mb[:n])
	for _, want := range []string{
		"dits_cluster_centers_healthy 2",
		"dits_cluster_failovers_total",
		"dits_cluster_rehomed_total",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics after center kill missing %q", want)
		}
	}
	if hresp, err := http.Get(hs.URL + "/healthz"); err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after center kill: %v %v", hresp, err)
	} else {
		hresp.Body.Close()
	}

	ld.check(t) // the center kill must not leak to clients

	// Phase 2 — ingest a marker dataset, drain replication to the
	// primary's acked version, then kill the primary under search-only
	// load. The replica takes over with the exact acked history, so the
	// marker must be visible on the very next read — no stale reads.
	fixed := searchRequest{Points: cellPoints(grid, alphaNodes[0]), K: 8}
	const freshID = 888_888
	ing := map[string]any{"source": "alpha", "id": freshID, "name": "cluster-fresh", "points": fixed.Points}
	if code := soakPost(t, hs.URL+"/ingest/dataset", ing, nil); code != http.StatusOK {
		t.Fatalf("pre-kill ingest = %d", code)
	}
	for deadline := time.Now().Add(5 * time.Second); replicaSt.Version() < primarySt.Version(); {
		if time.Now().After(deadline) {
			t.Fatalf("replica never drained: replica at %d, primary at %d", replicaSt.Version(), primarySt.Version())
		}
		time.Sleep(10 * time.Millisecond)
	}

	ld = startSoakLoad(ctx, t, hs.URL, [4]float64{0.65, 0.2, 0.15, 0}, 1200*time.Millisecond, 44, "cluster-soak-2")
	tsAlpha.Close() // kill the replicated source's primary mid-load

	var after gateway.OverlapResponse
	if code := soakPost(t, hs.URL+"/search/overlap", fixed, &after); code != http.StatusOK {
		t.Fatalf("first query after source kill = %d, want 200 (replica takeover)", code)
	}
	found := false
	for _, r := range after.Results {
		if r.Source == "alpha" && r.ID == freshID {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale read after replica takeover: dataset %d absent from %+v", freshID, after.Results)
	}

	ld.check(t) // the source kill must not leak to clients

	// A write to the dead primary must fail loudly (the replica refuses
	// local mutations); reads keep working regardless.
	ing["id"] = freshID + 1
	if code := soakPost(t, hs.URL+"/ingest/dataset", ing, nil); code == http.StatusOK {
		t.Fatal("write to a dead primary succeeded; replicas must not accept mutations")
	}
	if code := soakPost(t, hs.URL+"/search/overlap", fixed, &after); code != http.StatusOK {
		t.Fatalf("read after rejected write = %d, want 200", code)
	}

	// Parity: the degraded plane (one center down, alpha on its replica)
	// must still answer byte-identically to a single-center oracle over
	// the same live indexes.
	oracle := federation.NewCenter(grid, federation.Options{GlobalFilter: true, ClipQuery: true, Sessions: true})
	for name, srv := range map[string]*federation.SourceServer{
		"alpha": replicaSrv, "bravo": staticSrvs["bravo"], "charlie": staticSrvs["charlie"],
	} {
		oracle.Register(srv.Summary(), &transport.InProc{Name: name, Handler: srv.Handler(), Metrics: oracle.Metrics})
	}
	queries := append(append([]*dataset.Node{}, alphaNodes[:4]...), staticNodes[:4]...)
	for i, nd := range queries {
		q := nd.Cells
		want, err := oracle.OverlapSearch(ctx, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.OverlapSearch(ctx, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("parity query %d: %d results, oracle %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("parity query %d result %d: %+v, oracle %+v", i, j, got[j], want[j])
			}
		}
		wantCov, err := oracle.CoverageSearch(ctx, q, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		gotCov, err := cluster.CoverageSearch(ctx, q, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		if gotCov.Coverage != wantCov.Coverage || len(gotCov.Picked) != len(wantCov.Picked) {
			t.Fatalf("parity coverage %d: %d (%d picks), oracle %d (%d picks)",
				i, gotCov.Coverage, len(gotCov.Picked), wantCov.Coverage, len(wantCov.Picked))
		}
		for j := range gotCov.Picked {
			if gotCov.Picked[j] != wantCov.Picked[j] {
				t.Fatalf("parity coverage %d pick %d: %+v, oracle %+v", i, j, gotCov.Picked[j], wantCov.Picked[j])
			}
		}
	}
}

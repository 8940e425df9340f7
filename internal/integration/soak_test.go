package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dits/internal/admission"
	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/transport"
)

// The soak world is split down the middle so queries can be aimed at one
// source: alpha (mutable, WAL-backed) owns the left half, bravo (the
// chaos victim) owns the right half.
const (
	soakTheta = 7
	soakSide  = float64(int64(1) << soakTheta)
)

// soakNodes generates clustered datasets confined to x in [xlo, xhi).
func soakNodes(rng *rand.Rand, idBase int, xlo, xhi int) []*dataset.Node {
	var nodes []*dataset.Node
	span := xhi - xlo
	for i := 0; i < 40; i++ {
		cx := xlo + rng.Intn(span)
		cy := rng.Intn(1 << soakTheta)
		var ids []uint64
		for j := 0; j < 1+rng.Intn(6); j++ {
			x := min(max(cx+rng.Intn(5), xlo), xhi-1)
			y := min(cy+rng.Intn(5), 1<<soakTheta-1)
			ids = append(ids, geo.ZEncode(uint32(x), uint32(y)))
		}
		nodes = append(nodes, dataset.NewNodeFromCells(idBase+i, fmt.Sprintf("soak-%d", idBase+i), cellset.New(ids...)))
	}
	return nodes
}

// cellPoints turns a node's cells into gateway query points.
func cellPoints(g geo.Grid, nd *dataset.Node) [][2]float64 {
	var pts [][2]float64
	for _, c := range nd.Cells {
		p := g.CellCenter(c)
		pts = append(pts, [2]float64{p.X, p.Y})
	}
	return pts
}

// searchRequest is a /search/overlap or /search/coverage body as a client
// marshals it.
type searchRequest struct {
	Points [][2]float64 `json:"points"`
	K      int          `json:"k"`
	Delta  *float64     `json:"delta,omitempty"`
}

// soakPost POSTs JSON and decodes the response, returning the status.
func soakPost(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestSoakKillAndRestartSourceUnderLoad is the chaos soak: sustained mixed
// search+ingest load against a two-source TCP federation while one source
// is killed and later restarted at the same address. It pins the full
// degradation story: queries keep answering during the outage (SkipFailed),
// the failure counters tick, /metrics exposes every subsystem mid-incident,
// the source is picked back up after restart, and a post-recovery mutation
// is visible on the very next query — no stale cache reads.
func TestSoakKillAndRestartSourceUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("soak drives sustained load over real TCP; not short")
	}
	grid := geo.NewGrid(soakTheta, geo.Rect{MinX: 0, MinY: 0, MaxX: soakSide, MaxY: soakSide})
	center := federation.NewCenter(grid, federation.Options{
		GlobalFilter: true, ClipQuery: true, Sessions: true,
		OnSourceError: federation.SkipFailed,
	})
	center.SetCache(cache.New(1024))

	// alpha: mutable, durable, left half. Survives the whole soak and
	// absorbs the ingest traffic.
	alphaNodes := soakNodes(rand.New(rand.NewSource(1)), 0, 2, 58)
	store, err := ingest.Open(t.TempDir(), ingest.Options{
		Fsync:     ingest.FsyncNever,
		Bootstrap: func() (*dits.Local, error) { return dits.Build(grid, alphaNodes, 8), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	alphaSrv := federation.NewSourceServerWithGrid("alpha", store.Index())
	alphaSrv.EnableIngest(store)
	tsA, err := transport.Serve("127.0.0.1:0", alphaSrv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer tsA.Close()
	poolA := transport.DialPool("alpha", tsA.Addr(), 4, center.Metrics)
	defer poolA.Close()
	if _, err := center.RegisterRemote(context.Background(), poolA); err != nil {
		t.Fatal(err)
	}

	// bravo: static, right half — the chaos victim.
	bravoNodes := soakNodes(rand.New(rand.NewSource(2)), 1000, 68, 126)
	bravoSrv := federation.NewSourceServerWithGrid("bravo", dits.Build(grid, bravoNodes, 8))
	tsB, err := transport.Serve("127.0.0.1:0", bravoSrv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	bravoAddr := tsB.Addr()
	poolB := transport.DialPool("bravo", bravoAddr, 4, center.Metrics)
	defer poolB.Close()
	if _, err := center.RegisterRemote(context.Background(), poolB); err != nil {
		t.Fatal(err)
	}

	gw := gateway.NewWithOptions(center, gateway.Options{
		Admission: admission.Config{Rate: 5000, Burst: 1000, Deadline: 5 * time.Second},
	})
	store.Register(gw.Registry())
	hs := httptest.NewServer(gw.Handler())
	defer hs.Close()

	// Background soak load: mixed searches, batches, and ingest upserts
	// into alpha, running across the kill and the restart.
	ld := startSoakLoad(context.Background(), t, hs.URL, [4]float64{0.55, 0.2, 0.1, 0.15}, 2200*time.Millisecond, 42, "soak")

	// Phase 1 — healthy: the load is flowing through both sources.
	if f := center.Metrics.Failures(); len(f) != 0 {
		t.Fatalf("healthy phase already recorded source failures: %v", f)
	}

	// Phase 2 — kill bravo mid-load.
	tsB.Close()
	bravoQuery := searchRequest{Points: cellPoints(grid, bravoNodes[0]), K: 8}
	alphaQuery := searchRequest{Points: cellPoints(grid, alphaNodes[0]), K: 8}
	for i := 0; i < 5; i++ {
		// Vary k so each probe misses the cache and must touch the fan-out
		// path; degraded answers are never cached.
		q := bravoQuery
		q.K = 8 + i
		var resp gateway.OverlapResponse
		if code := soakPost(t, hs.URL+"/search/overlap", q, &resp); code != http.StatusOK {
			t.Fatalf("query during outage = %d, want 200 (SkipFailed degradation)", code)
		}
		for _, r := range resp.Results {
			if r.Source == "bravo" {
				t.Fatalf("dead source answered: %+v", r)
			}
		}
	}
	var resp gateway.OverlapResponse
	if code := soakPost(t, hs.URL+"/search/overlap", alphaQuery, &resp); code != http.StatusOK || len(resp.Results) == 0 {
		t.Fatalf("surviving source must keep answering during outage: code=%d results=%d", code, len(resp.Results))
	}
	if n := center.Metrics.Failures()["bravo"]; n == 0 {
		t.Fatal("outage recorded no failures for bravo")
	}

	// Mid-incident /metrics scrape: every subsystem must be on the page
	// while the federation is degraded.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	exposition := string(mb)
	for _, want := range []string{
		"dits_transport_method_calls_total",
		`dits_transport_source_failures_total{source="bravo"}`,
		"dits_cache_hits_total",
		"dits_cache_entries",
		"dits_ingest_mutations_total",
		"dits_ingest_wal_bytes",
		"dits_admission_admitted_total",
		"dits_gateway_request_seconds_bucket",
		"dits_gateway_sources 2",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics during outage missing %q", want)
		}
	}

	// Phase 3 — restart bravo at its old address. The port was just
	// released; retry briefly in case the OS is slow to return it.
	var tsB2 *transport.Server
	for deadline := time.Now().Add(3 * time.Second); ; {
		tsB2, err = transport.Serve(bravoAddr, bravoSrv.Handler())
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart bravo on %s: %v", bravoAddr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	defer tsB2.Close()

	// The pool redials on demand, so recovery needs no re-registration —
	// poll until a fresh query is answered by bravo again.
	recovered := false
	for i := 0; !recovered && i < 100; i++ {
		q := bravoQuery
		q.K = 20 + i // fresh cache key per probe
		var resp gateway.OverlapResponse
		if code := soakPost(t, hs.URL+"/search/overlap", q, &resp); code == http.StatusOK {
			for _, r := range resp.Results {
				if r.Source == "bravo" {
					recovered = true
					break
				}
			}
		}
		if !recovered {
			time.Sleep(30 * time.Millisecond)
		}
	}
	if !recovered {
		t.Fatal("bravo never served results after restart")
	}

	// Phase 4 — no stale cache reads after recovery: cache the answer to a
	// fixed query, mutate alpha so the answer must change, and require the
	// very next read to see the mutation. The cache key embeds each
	// source's data version, so the pre-mutation entry must miss.
	fixed := alphaQuery
	var before gateway.OverlapResponse
	if code := soakPost(t, hs.URL+"/search/overlap", fixed, &before); code != http.StatusOK {
		t.Fatalf("pre-mutation query = %d", code)
	}
	const freshID = 777_777
	ing := map[string]any{"source": "alpha", "id": freshID, "name": "soak-fresh", "points": fixed.Points}
	if code := soakPost(t, hs.URL+"/ingest/dataset", ing, nil); code != http.StatusOK {
		t.Fatalf("post-recovery ingest = %d", code)
	}
	var after gateway.OverlapResponse
	if code := soakPost(t, hs.URL+"/search/overlap", fixed, &after); code != http.StatusOK {
		t.Fatalf("post-mutation query = %d", code)
	}
	found := false
	for _, r := range after.Results {
		if r.Source == "alpha" && r.ID == freshID {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale cache read: freshly ingested dataset %d absent from %+v", freshID, after.Results)
	}

	// Phase 5 — the soak itself must have been clean: traffic flowed the
	// whole time and nothing but the killed source's skipped fan-outs went
	// wrong (SkipFailed turns those into degraded 200s, not errors).
	ld.check(t)
}

package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/transport"
)

// newMutableGateway builds a two-source federation whose sources run
// durable ingest stores, served over real TCP behind an httptest gateway.
func newMutableGateway(t *testing.T) (*httptest.Server, []uint64) {
	t.Helper()
	side := float64(int64(1) << theta)
	grid := geo.NewGrid(theta, geo.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side})
	center := federation.NewCenter(grid, federation.DefaultOptions())
	center.SetCache(cache.New(128))

	var queryCells []uint64
	rng := rand.New(rand.NewSource(5))
	for s := 0; s < 2; s++ {
		var nodes []*dataset.Node
		for i := 0; i < 40; i++ {
			var ids []uint64
			cx, cy := rng.Intn(1<<theta), rng.Intn(1<<theta)
			for j := 0; j < 1+rng.Intn(12); j++ {
				x := min(cx+rng.Intn(7), 1<<theta-1)
				y := min(cy+rng.Intn(7), 1<<theta-1)
				ids = append(ids, geo.ZEncode(uint32(x), uint32(y)))
			}
			nd := dataset.NewNodeFromCells(s*1000+i, fmt.Sprintf("s%d-%d", s, i), cellset.New(ids...))
			nodes = append(nodes, nd)
			if s == 0 && i < 3 {
				queryCells = append(queryCells, nd.Cells...)
			}
		}
		idx := dits.Build(grid, nodes, 8)
		st, err := ingest.Open(t.TempDir(), ingest.Options{
			Fsync:         ingest.FsyncNever,
			SnapshotEvery: -1,
			Bootstrap:     func() (*dits.Local, error) { return idx, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		srv := federation.NewSourceServerWithGrid(fmt.Sprintf("src%d", s), idx)
		srv.EnableIngest(st)
		ts, err := transport.Serve("127.0.0.1:0", srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ts.Close() })
		pool := transport.DialPool(srv.Name, ts.Addr(), 4, center.Metrics)
		t.Cleanup(func() { pool.Close() })
		if _, err := center.RegisterRemote(context.Background(), pool); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(NewWithOptions(center, Options{}).Handler())
	t.Cleanup(hs.Close)
	return hs, cellset.New(queryCells...)
}

func doDelete(t *testing.T, url string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestIngestEndToEndNoStaleCache is the acceptance check: the gateway
// serves no stale cached result after a mutation applied through
// POST /ingest/dataset.
func TestIngestEndToEndNoStaleCache(t *testing.T) {
	hs, queryCells := newMutableGateway(t)
	search := func() OverlapResponse {
		var out OverlapResponse
		if code := postJSON(t, hs.URL+"/search/overlap", SearchRequest{Cells: queryCells, K: 5}, &out); code != http.StatusOK {
			t.Fatalf("search status %d", code)
		}
		return out
	}

	before := search()
	if len(before.Results) == 0 {
		t.Fatal("seed query returned nothing")
	}
	// Second identical query must come from the cache.
	search()
	if st := getStats(t, hs.URL); st.CacheHits == 0 {
		t.Fatalf("expected a cache hit, stats = %+v", st)
	}

	// Mutate through the gateway: a dataset covering the query exactly.
	var put IngestResponse
	if code := postJSON(t, hs.URL+"/ingest/dataset",
		IngestRequest{Source: "src0", ID: 424242, Name: "hot", Cells: queryCells}, &put); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if !put.Found || put.Version == 0 {
		t.Fatalf("put response = %+v", put)
	}

	after := search()
	if len(after.Results) == 0 || after.Results[0].ID != 424242 {
		t.Fatalf("stale cache: post-mutation top result = %+v", after.Results)
	}
	if after.Results[0].Overlap != len(queryCells) {
		t.Fatalf("inserted dataset overlap = %d, want %d", after.Results[0].Overlap, len(queryCells))
	}

	// Delete restores the original ranking, again bypassing stale entries.
	var del IngestResponse
	if code := doDelete(t, hs.URL+"/ingest/dataset?source=src0&id=424242", &del); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	restored := search()
	if !reflect.DeepEqual(before.Results, restored.Results) {
		t.Fatalf("results after insert+delete differ:\n  %v\n  %v", before.Results, restored.Results)
	}

	// The batch endpoint shares the same versioned cache entries.
	var batch BatchSearchResponse
	if code := postJSON(t, hs.URL+"/search/batch",
		BatchSearchRequest{Queries: []SearchRequest{{Cells: queryCells, K: 5}}}, &batch); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if !reflect.DeepEqual(batch.Results[0], restored.Results) {
		t.Fatalf("batch answer diverges from single-query answer")
	}

	st := getStats(t, hs.URL)
	if st.IngestMutations != 2 {
		t.Fatalf("ingestMutations = %d, want 2", st.IngestMutations)
	}
	if st.CacheInvalidations < 2 {
		t.Fatalf("cacheInvalidations = %d, want >= 2", st.CacheInvalidations)
	}
	if st.SourceVersions["src0"] != put.Version+1 {
		t.Fatalf("sourceVersions = %v, want src0 at %d", st.SourceVersions, put.Version+1)
	}
}

func TestIngestValidation(t *testing.T) {
	hs, queryCells := newMutableGateway(t)
	cases := []struct {
		name string
		req  any
		code int
	}{
		{"no source", IngestRequest{ID: 1, Cells: queryCells}, http.StatusBadRequest},
		{"no data", IngestRequest{Source: "src0", ID: 1}, http.StatusBadRequest},
		{"both", IngestRequest{Source: "src0", ID: 1, Cells: queryCells, Points: [][2]float64{{1, 1}}}, http.StatusBadRequest},
		{"unknown source", IngestRequest{Source: "elsewhere", ID: 1, Cells: queryCells}, http.StatusNotFound},
		{"short point", json.RawMessage(`{"source":"src0","id":1,"points":[[1.5]]}`), http.StatusBadRequest},
		{"long point", json.RawMessage(`{"source":"src0","id":1,"points":[[1,2,3]]}`), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := postJSON(t, hs.URL+"/ingest/dataset", tc.req, nil); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		}
	}
	if code := doDelete(t, hs.URL+"/ingest/dataset?source=src0&id=99999999", nil); code != http.StatusNotFound {
		t.Errorf("delete missing dataset: status %d, want 404", code)
	}
	if code := doDelete(t, hs.URL+"/ingest/dataset?source=src0", nil); code != http.StatusBadRequest {
		t.Errorf("delete without id: status %d, want 400", code)
	}
	// Points are gridded under the shared grid, like search queries.
	var put IngestResponse
	if code := postJSON(t, hs.URL+"/ingest/dataset",
		IngestRequest{Source: "src1", ID: 7, Name: "pts", Points: [][2]float64{{3.5, 3.5}, {4.5, 4.5}}}, &put); code != http.StatusOK {
		t.Fatalf("points put status %d", code)
	}
	if put.Version == 0 {
		t.Fatalf("points put response = %+v", put)
	}
}

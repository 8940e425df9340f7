package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/transport"
)

const theta = 7

// newTestGateway builds a two-source federation behind real TCP servers
// with pooled connections and a result cache, and fronts it with an
// httptest server.
func newTestGateway(t *testing.T) (*httptest.Server, *federation.Center, [][2]float64) {
	t.Helper()
	side := float64(int64(1) << theta)
	grid := geo.NewGrid(theta, geo.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side})
	center := federation.NewCenter(grid, federation.DefaultOptions())
	center.SetCache(cache.New(128))

	var queryPoints [][2]float64
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < 2; s++ {
		var nodes []*dataset.Node
		for i := 0; i < 50; i++ {
			var ids []uint64
			cx, cy := rng.Intn(1<<theta), rng.Intn(1<<theta)
			for j := 0; j < 1+rng.Intn(12); j++ {
				x := min(cx+rng.Intn(7), 1<<theta-1)
				y := min(cy+rng.Intn(7), 1<<theta-1)
				ids = append(ids, geo.ZEncode(uint32(x), uint32(y)))
			}
			nd := dataset.NewNodeFromCells(s*1000+i, fmt.Sprintf("s%d-%d", s, i), cellset.New(ids...))
			nodes = append(nodes, nd)
			if i < 4 {
				// Dataset cells double as query points that are known to
				// overlap federated data.
				for _, c := range nd.Cells {
					p := grid.CellCenter(c)
					queryPoints = append(queryPoints, [2]float64{p.X, p.Y})
				}
			}
		}
		srv := federation.NewSourceServerWithGrid(fmt.Sprintf("src%d", s), dits.Build(grid, nodes, 8))
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
	return hs, center, queryPoints
}

func postJSON(t *testing.T, url string, body any, out any) int {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestOverlapEndpoint(t *testing.T) {
	hs, _, qp := newTestGateway(t)
	req := SearchRequest{Points: qp, K: 5}
	var resp OverlapResponse
	if code := postJSON(t, hs.URL+"/search/overlap", req, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no overlap results over the federated sources")
	}
	for _, r := range resp.Results {
		if r.Source != "src0" && r.Source != "src1" {
			t.Errorf("result from unknown source %q", r.Source)
		}
		if r.Overlap <= 0 {
			t.Errorf("non-positive overlap %d", r.Overlap)
		}
	}
	// Cells form of the same query must give the same answer.
	side := float64(int64(1) << theta)
	grid := geo.NewGrid(theta, geo.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side})
	var cells []uint64
	for _, p := range req.Points {
		cells = append(cells, grid.CellID(geo.Point{X: p[0], Y: p[1]}))
	}
	var resp2 OverlapResponse
	if code := postJSON(t, hs.URL+"/search/overlap", SearchRequest{Cells: cells, K: 5}, &resp2); code != http.StatusOK {
		t.Fatalf("cells status = %d", code)
	}
	if len(resp2.Results) != len(resp.Results) {
		t.Errorf("points and cells form disagree: %d vs %d results", len(resp.Results), len(resp2.Results))
	}
}

func TestCoverageEndpoint(t *testing.T) {
	hs, _, qp := newTestGateway(t)
	delta := 4.0
	req := SearchRequest{Points: qp[:min(8, len(qp))], K: 3, Delta: &delta}
	var resp CoverageResponse
	if code := postJSON(t, hs.URL+"/search/coverage", req, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.QueryCoverage == 0 {
		t.Fatal("query coverage is zero")
	}
	if resp.Coverage < resp.QueryCoverage {
		t.Errorf("coverage %d < query coverage %d", resp.Coverage, resp.QueryCoverage)
	}
	gain := 0
	for _, p := range resp.Picked {
		gain += p.Gain
	}
	if resp.Coverage != resp.QueryCoverage+gain {
		t.Errorf("coverage %d != query %d + gains %d", resp.Coverage, resp.QueryCoverage, gain)
	}
}

func TestValidation(t *testing.T) {
	hs, _, _ := newTestGateway(t)
	cases := []struct {
		name string
		body any
	}{
		{"empty", SearchRequest{}},
		{"both forms", SearchRequest{Points: [][2]float64{{1, 1}}, Cells: []uint64{1}}},
		{"negative k", SearchRequest{Points: [][2]float64{{1, 1}}, K: -1}},
		{"huge k", SearchRequest{Points: [][2]float64{{1, 1}}, K: 100000}},
		{"unknown field", map[string]any{"pts": [][2]float64{{1, 1}}}},
		{"short point", json.RawMessage(`{"points":[[1,1],[1.5]]}`)},
		{"long point", json.RawMessage(`{"points":[[1,2,3]]}`)},
	}
	for _, tc := range cases {
		var er struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, hs.URL+"/search/overlap", tc.body, &er); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
		if er.Error == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}
	// Wrong method.
	resp, err := http.Get(hs.URL + "/search/overlap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search/overlap = %d, want 405", resp.StatusCode)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	hs, center, qp := newTestGateway(t)
	req := SearchRequest{Points: qp[:min(6, len(qp))], K: 3}
	postJSON(t, hs.URL+"/search/overlap", req, nil)
	postJSON(t, hs.URL+"/search/overlap", req, nil) // cache hit
	postJSON(t, hs.URL+"/search/coverage", req, nil)

	var st StatsResponse
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Sources != 2 {
		t.Errorf("Sources = %d, want 2", st.Sources)
	}
	if st.OverlapQueries != 2 || st.CoverageQueries != 1 {
		t.Errorf("query counters = %d/%d, want 2/1", st.OverlapQueries, st.CoverageQueries)
	}
	if st.CacheHits == 0 {
		t.Errorf("repeated query did not hit the cache: %+v", st)
	}
	if st.PeerMessages == 0 {
		t.Error("no peer traffic recorded")
	}
	if st.MembershipEpoch == 0 {
		t.Error("membership epoch not reported")
	}
	if ms, ok := st.PeerMethodStats[federation.MethodOverlap]; !ok || ms.Calls == 0 {
		t.Errorf("per-method stats missing overlap traffic: %+v", st.PeerMethodStats)
	}
	if ms, ok := st.PeerMethodStats[federation.MethodCoverageRound]; !ok || ms.Calls == 0 {
		t.Errorf("per-method stats missing session rounds: %+v", st.PeerMethodStats)
	}

	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", hresp.StatusCode)
	}
	center.Unregister("src0")
	center.Unregister("src1")
	hresp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with no sources = %d, want 503", hresp.StatusCode)
	}
}

// TestConcurrentClients drives the full HTTP → center → pooled TCP → source
// path from many clients at once under -race.
func TestConcurrentClients(t *testing.T) {
	hs, _, qp := newTestGateway(t)
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p := qp[(c*13+i*7)%len(qp)]
				req := SearchRequest{Points: [][2]float64{p, {p[0] + 1, p[1] + 2}}, K: 5}
				var resp OverlapResponse
				b, _ := json.Marshal(req)
				hr, err := http.Post(hs.URL+"/search/overlap", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				code := hr.StatusCode
				err = json.NewDecoder(hr.Body).Decode(&resp)
				hr.Body.Close()
				if err != nil || code != http.StatusOK {
					t.Errorf("status %d err %v", code, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestBatchEndpoint(t *testing.T) {
	hs, center, qp := newTestGateway(t)
	// Disable the result cache: batched and single queries share it, so
	// with it on, whichever runs second would echo the first's cached
	// answers and the parity assertion below would be vacuous.
	center.SetCache(nil)
	// Three queries: two distinct point sets and a duplicate of the first.
	half := qp[:len(qp)/2]
	req := BatchSearchRequest{Queries: []SearchRequest{
		{Points: qp, K: 5},
		{Points: half, K: 3},
		{Points: qp, K: 5},
	}}
	var resp BatchSearchResponse
	if code := postJSON(t, hs.URL+"/search/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d result sets, want 3", len(resp.Results))
	}
	// Each entry must match the single-query endpoint's answer.
	for i, q := range req.Queries {
		var single OverlapResponse
		if code := postJSON(t, hs.URL+"/search/overlap", SearchRequest{Points: q.Points, K: q.K}, &single); code != http.StatusOK {
			t.Fatalf("single %d: status = %d", i, code)
		}
		if len(single.Results) != len(resp.Results[i]) {
			t.Fatalf("query %d: batch %d results, single %d", i, len(resp.Results[i]), len(single.Results))
		}
		for j := range single.Results {
			if single.Results[j] != resp.Results[i][j] {
				t.Fatalf("query %d result %d: batch %+v != single %+v", i, j, resp.Results[i][j], single.Results[j])
			}
		}
	}
	// Duplicate queries inside one batch agree with each other.
	for j := range resp.Results[0] {
		if resp.Results[0][j] != resp.Results[2][j] {
			t.Fatal("duplicate batch entries diverged")
		}
	}
}

func TestBatchValidation(t *testing.T) {
	hs, _, qp := newTestGateway(t)
	delta := 5.0
	many := make([]SearchRequest, maxBatchQueries+1)
	for i := range many {
		many[i] = SearchRequest{Points: qp, K: 1}
	}
	cases := []struct {
		name string
		body any
	}{
		{"no queries", BatchSearchRequest{}},
		{"oversized", BatchSearchRequest{Queries: many}},
		{"delta in batch", BatchSearchRequest{Queries: []SearchRequest{{Points: qp, Delta: &delta}}}},
		{"bad entry", BatchSearchRequest{Queries: []SearchRequest{{Points: qp}, {}}}},
		{"unknown field", map[string]any{"qs": []SearchRequest{{Points: qp}}}},
		{"short point", json.RawMessage(`{"queries":[{"points":[[1,1]]},{"points":[[1.5]]}]}`)},
		{"long point", json.RawMessage(`{"queries":[{"points":[[1,2,3]]}]}`)},
	}
	for _, tc := range cases {
		var er struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, hs.URL+"/search/batch", tc.body, &er); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
		if er.Error == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}
}

func TestBatchStatsCounters(t *testing.T) {
	hs, _, qp := newTestGateway(t)
	req := BatchSearchRequest{Queries: []SearchRequest{{Points: qp, K: 2}, {Points: qp[:4], K: 2}}}
	if code := postJSON(t, hs.URL+"/search/batch", req, nil); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.BatchRequests != 1 || st.BatchQueries != 2 {
		t.Fatalf("batch counters = %d requests / %d queries, want 1/2", st.BatchRequests, st.BatchQueries)
	}
}

package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/obs"
	"dits/internal/transport"
)

// tracedPost POSTs JSON and returns the status, the raw response body, and
// the gateway-assigned trace ID.
func tracedPost(t *testing.T, url string, body any) (int, []byte, string) {
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header.Get("X-Dits-Trace-Id")
}

// fetchTrace pulls one trace's span tree from GET /debug/traces/{id}.
func fetchTrace(t *testing.T, base, id string) obs.TraceDetail {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /debug/traces/%s = %d: %s", id, resp.StatusCode, body)
	}
	var detail obs.TraceDetail
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	return detail
}

// stripTook normalizes a response body for differential comparison by
// deleting the tookMs wall-clock field — the only part of an answer that
// legitimately varies between identical federations.
func stripTook(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("parse response %s: %v", body, err)
	}
	delete(m, "tookMs")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// flattenTree collects every span node of a tree, depth first.
func flattenTree(nodes []*obs.SpanNode) []*obs.SpanNode {
	var out []*obs.SpanNode
	for _, n := range nodes {
		out = append(out, n)
		out = append(out, flattenTree(n.Children)...)
	}
	return out
}

// TestClusterFailoverSingleTrace is the tracing acceptance path: a query
// through a two-center clustered gateway trips over a freshly killed
// center, fails over in-band, and still answers 200 — and the ONE trace
// behind that response, fetched over GET /debug/traces/{id}, shows the
// failed RPC, the failover.rehome, and the retried RPC under a single
// trace ID.
func TestClusterFailoverSingleTrace(t *testing.T) {
	grid := geo.NewGrid(soakTheta, geo.Rect{MinX: 0, MinY: 0, MaxX: soakSide, MaxY: soakSide})

	// Two sources over real TCP.
	sourceAddr := make(map[string]string, 2)
	var probeNode *dataset.Node
	for _, spec := range []struct {
		name   string
		lo, hi int
		idBase int
		seed   int64
	}{
		{"alpha", 2, 60, 0, 21},
		{"bravo", 60, 126, 1000, 22},
	} {
		nodes := soakNodes(rand.New(rand.NewSource(spec.seed)), spec.idBase, spec.lo, spec.hi)
		if probeNode == nil {
			probeNode = nodes[0]
		}
		srv := federation.NewSourceServerWithGrid(spec.name, dits.Build(grid, nodes, 8))
		ts, err := transport.Serve("127.0.0.1:0", srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		sourceAddr[spec.name] = ts.Addr()
	}

	// Two centers over real TCP.
	met := &transport.Metrics{}
	peers := make(map[string]transport.Peer, 2)
	centerTS := make(map[string]*transport.Server, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("center-%d", i)
		c := federation.NewCenter(grid, federation.Options{GlobalFilter: true, ClipQuery: true, Sessions: true})
		cs, err := federation.NewCenterServer(name, c, federation.CenterServerOptions{PoolSize: 2})
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
		peers[name] = transport.DialPool(name, ts.Addr(), 2, met)
	}
	cluster := federation.NewCluster(grid, peers)
	cluster.Metrics = met
	defer cluster.Close()
	for name, addr := range sourceAddr {
		if err := cluster.AddSource(t.Context(), federation.ClusterSource{Name: name, Addr: addr}); err != nil {
			t.Fatal(err)
		}
	}

	gw := gateway.NewCluster(cluster, gateway.Options{})
	hs := httptest.NewServer(gw.Handler())
	defer hs.Close()

	// Kill the center that owns the probed dataset's source, so the query's
	// fan-out must reach it. The gateway has NOT probed: the very next query
	// discovers the corpse mid-flight.
	victim := cluster.Stats().SourceOwners["alpha"]
	if victim == "" {
		t.Fatal("no center owns alpha")
	}
	centerTS[victim].Close()

	req := searchRequest{Points: cellPoints(grid, probeNode), K: 5}
	code, body, traceID := tracedPost(t, hs.URL+"/search/overlap", req)
	if code != http.StatusOK {
		t.Fatalf("query across center kill = %d: %s", code, body)
	}
	if traceID == "" {
		t.Fatal("response carries no X-Dits-Trace-Id header")
	}

	detail := fetchTrace(t, hs.URL, traceID)
	if detail.Root != "http.overlap" {
		t.Errorf("trace root = %q, want http.overlap", detail.Root)
	}
	var failedRPC, rehome, retriedRPC *obs.SpanNode
	for _, n := range flattenTree(detail.Tree) {
		switch {
		case n.Name == "rpc:"+federation.MethodClusterForward && n.Err != "":
			failedRPC = n
		case n.Name == "failover.rehome":
			rehome = n
		case n.Name == "rpc:"+federation.MethodClusterForward && n.Err == "":
			retriedRPC = n
		}
	}
	if failedRPC == nil {
		t.Error("trace has no failed rpc:cluster.forward span")
	}
	if rehome == nil {
		t.Error("trace has no failover.rehome span")
	} else if rehome.Source != victim {
		t.Errorf("failover.rehome source = %q, want the killed center %q", rehome.Source, victim)
	}
	if retriedRPC == nil {
		t.Error("trace has no successful retried rpc:cluster.forward span")
	} else if failedRPC != nil && retriedRPC.StartMs < failedRPC.StartMs+failedRPC.DurationMs {
		t.Errorf("the successful rpc:cluster.forward (start %.3f ms) does not follow the failed one (end %.3f ms)",
			retriedRPC.StartMs, failedRPC.StartMs+failedRPC.DurationMs)
	}
	if failedRPC != nil && failedRPC.Source != victim {
		t.Errorf("failed rpc source = %q, want %q", failedRPC.Source, victim)
	}

	// The same incident must be visible in the listing too.
	resp, err := http.Get(hs.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range listing.Traces {
		if s.ID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s not in GET /debug/traces listing", traceID)
	}
}

// TestTracedDifferentialAcrossWireOptions queries two federations over
// the same sources — every option negotiated, and a mixed plane where one
// source is dialed without trace propagation — and requires
// byte-identical answers from both. The traced mixed
// federation must mark where visibility ends: the untraced peer's RPCs
// carry an explicit "untraced" span, while the fully negotiated
// federation has none.
func TestTracedDifferentialAcrossWireOptions(t *testing.T) {
	grid := geo.NewGrid(soakTheta, geo.Rect{MinX: 0, MinY: 0, MaxX: soakSide, MaxY: soakSide})

	type sourceSpec struct {
		name string
		addr string
	}
	var sources []sourceSpec
	var queryNodes []*dataset.Node
	for _, spec := range []struct {
		name   string
		lo, hi int
		idBase int
		seed   int64
	}{
		{"alpha", 2, 60, 0, 31},
		{"bravo", 60, 126, 1000, 32},
	} {
		nodes := soakNodes(rand.New(rand.NewSource(spec.seed)), spec.idBase, spec.lo, spec.hi)
		queryNodes = append(queryNodes, nodes[0], nodes[len(nodes)/2])
		srv := federation.NewSourceServerWithGrid(spec.name, dits.Build(grid, nodes, 8))
		ts, err := transport.Serve("127.0.0.1:0", srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		sources = append(sources, sourceSpec{name: spec.name, addr: ts.Addr()})
	}

	untracedSource := sources[0].name
	federations := []struct {
		name string
		dial func(i int) transport.DialConfig
	}{
		{"negotiated", func(int) transport.DialConfig { return transport.DialConfig{} }},
		{"mixed-untraced", func(i int) transport.DialConfig { return transport.DialConfig{NoTrace: i == 0} }},
	}

	type answer struct {
		fed  string
		body string
	}
	// answers[q] collects each federation's raw response to query q.
	var answers [][]answer
	traceIDs := make(map[string][]string, len(federations))
	gatewayURL := make(map[string]string, len(federations))

	for _, fed := range federations {
		center := federation.NewCenter(grid, federation.Options{
			GlobalFilter: true, ClipQuery: true, Sessions: true,
		})
		for i, src := range sources {
			pool := transport.DialPoolWith(src.name, src.addr, 2, center.Metrics, fed.dial(i))
			defer pool.Close()
			if _, err := center.RegisterRemote(t.Context(), pool); err != nil {
				t.Fatalf("federation %s: register %s: %v", fed.name, src.name, err)
			}
		}
		gw := gateway.NewWithOptions(center, gateway.Options{})
		hs := httptest.NewServer(gw.Handler())
		defer hs.Close()
		gatewayURL[fed.name] = hs.URL

		for qi, nd := range queryNodes {
			delta := 6.0
			for pi, probe := range []struct {
				path string
				req  searchRequest
			}{
				{"/search/overlap", searchRequest{Points: cellPoints(grid, nd), K: 4}},
				{"/search/coverage", searchRequest{Points: cellPoints(grid, nd), K: 3, Delta: &delta}},
			} {
				code, body, traceID := tracedPost(t, hs.URL+probe.path, probe.req)
				if code != http.StatusOK {
					t.Fatalf("federation %s: %s = %d: %s", fed.name, probe.path, code, body)
				}
				if traceID == "" {
					t.Fatalf("federation %s: %s carries no trace ID", fed.name, probe.path)
				}
				idx := qi*2 + pi
				for len(answers) <= idx {
					answers = append(answers, nil)
				}
				answers[idx] = append(answers[idx], answer{fed: fed.name, body: stripTook(t, body)})
				traceIDs[fed.name] = append(traceIDs[fed.name], traceID)
			}
		}
	}

	for qi, byFed := range answers {
		for _, a := range byFed[1:] {
			if a.body != byFed[0].body {
				t.Errorf("query %d: federation %s answered differently from %s:\n%s\nvs\n%s",
					qi, a.fed, byFed[0].fed, a.body, byFed[0].body)
			}
		}
	}

	// The mixed federation's traces mark the untraced peer explicitly.
	sawUntraced := false
	for _, id := range traceIDs["mixed-untraced"] {
		detail := fetchTrace(t, gatewayURL["mixed-untraced"], id)
		for _, n := range flattenTree(detail.Tree) {
			if n.Name == "untraced" {
				sawUntraced = true
				if n.Source != untracedSource {
					t.Errorf("untraced marker names source %q, want %q", n.Source, untracedSource)
				}
				if strings.HasPrefix(n.Name, "serve:") {
					t.Error("untraced peer must not ship serve spans")
				}
			}
		}
	}
	if !sawUntraced {
		t.Error("mixed federation recorded no untraced marker for the untraced peer")
	}

	// The fully negotiated federation has no visibility gap: no untraced
	// markers, and the sources' serve-side spans come back into the trace.
	sawRemote := false
	for _, id := range traceIDs["negotiated"] {
		detail := fetchTrace(t, gatewayURL["negotiated"], id)
		for _, n := range flattenTree(detail.Tree) {
			if n.Name == "untraced" {
				t.Error("negotiated federation recorded an untraced marker")
			}
			if n.Remote {
				sawRemote = true
			}
		}
	}
	if !sawRemote {
		t.Error("negotiated federation's traces contain no remote (source-side) spans")
	}
}

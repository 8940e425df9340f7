// Package gateway exposes a federation.Center to ordinary clients over
// HTTP/JSON. It is the user-facing front of the system: clients POST a
// query as raw points (gridded under the federation's shared grid) or as
// precomputed cell IDs, and the gateway fans the search out to the
// federated sources through the center's pooled peer connections.
//
// Endpoints:
//
//	POST   /search/overlap   {"points":[[x,y],...], "k":10}
//	POST   /search/coverage  {"points":[[x,y],...], "delta":10, "k":5}
//	POST   /search/batch     {"queries":[{"points":...,"k":5}, ...]}
//	POST   /ingest/dataset   {"source":"Transit", "id":7001, "name":"...", "points":[[x,y],...]}
//	DELETE /ingest/dataset   ?source=Transit&id=7001
//	GET    /stats            gateway, cache, ingest, and transport counters
//	GET    /metrics          Prometheus text exposition of every counter
//	GET    /healthz          200 when ≥1 source is registered, else 503
//	GET    /debug/traces     most recent completed request traces (?slow=1)
//	GET    /debug/traces/{id} one trace's full span tree
//
// /search/batch executes many overlap queries as ONE federated batch:
// one search.batch exchange per candidate source instead of one
// overlap.search per query per source, with the per-query answers
// identical to the single-query endpoint's.
//
// Request bodies are read once and walked once by the package's own
// decoder (decode.go), which grids each point as it parses it: a query is
// a spatial dataset, and the cell set is all of it the gateway keeps.
// Responses are written with encoding/json.
//
// The /ingest endpoints mutate a running source through its durable write
// path (dataset.put / dataset.delete): the mutation is WAL-logged at the
// source before it is acknowledged, and the center's result cache is
// invalidated by data version, so no subsequent search can return a
// pre-mutation answer for data the mutation touched.
//
// The gateway defends itself under load (Options.Admission): per-client
// token buckets, a bounded admission queue that sheds with 429 +
// Retry-After once full, and a per-request deadline that rides the request
// context through the federation layer onto the wire, so an abandoned
// query stops consuming source CPU. See docs/OPERATIONS.md for the
// load-shedding semantics and the /metrics name reference, and
// docs/PROTOCOL.md for the full payload specification.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"dits/internal/admission"
	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/metrics"
	"dits/internal/obs"
	"dits/internal/transport"
)

// maxBodyBytes caps a request body; a query of a million points is ~16 MB.
const maxBodyBytes = 32 << 20

// defaultK is used when a search request omits k.
const defaultK = 10

// defaultDelta is the connectivity threshold (in grid cells) used when a
// coverage request omits delta.
const defaultDelta = 10.0

// maxK bounds k so one request cannot ask every source for an unbounded
// result set.
const maxK = 1000

// maxBatchQueries bounds the queries of one POST /search/batch.
const maxBatchQueries = 256

// Options configure the gateway's self-protection and observability.
// The zero value admits everything, applies no deadline, and leaves the
// pprof endpoints off; /metrics is always served, and request tracing is
// on with a DefaultCapacity ring.
type Options struct {
	// Admission tunes overload protection; see admission.Config.
	Admission admission.Config
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// TraceCapacity sizes the completed-trace ring behind GET
	// /debug/traces (0 = obs.DefaultCapacity).
	TraceCapacity int
	// SlowTrace marks traces at least this long as slow queries: they
	// are kept in a dedicated ring and dumped — full span tree — as one
	// structured log record. 0 disables slow-query capture.
	SlowTrace time.Duration
	// Logger receives slow-query records (nil = slog.Default()).
	Logger *slog.Logger
}

// Backend is the federation plane a gateway fronts: a single Center or a
// sharded, replicated Cluster. Both produce identical answers for the
// same corpus — the cluster runs a Center's engine over every source and
// only relays its calls through the centers.
type Backend interface {
	OverlapSearch(ctx context.Context, queryCells cellset.Set, k int) ([]federation.SourceResult, error)
	OverlapSearchBatch(ctx context.Context, queries []federation.BatchQuery) ([][]federation.SourceResult, error)
	CoverageSearch(ctx context.Context, queryCells cellset.Set, delta float64, k int) (federation.CoverageResult, error)
	PutDataset(ctx context.Context, source string, id int, name string, cells cellset.Set) (federation.MutateResult, error)
	DeleteDataset(ctx context.Context, source string, id int) (federation.MutateResult, error)
	NumSources() int
	Generation() uint64
	SourceVersions() map[string]uint64
	Cache() *cache.Cache // nil when disabled
	CacheInvalidations() int64
}

// Gateway serves the HTTP API over one federation backend.
type Gateway struct {
	backend Backend
	grid    geo.Grid
	// peerMetrics observes the backend's outbound exchanges: center→source
	// traffic in single-center mode, gateway→center in cluster mode.
	peerMetrics *transport.Metrics
	// cluster is non-nil in cluster mode and feeds the extra /stats and
	// /healthz surfaces (center health, failovers, shard owners).
	cluster *federation.Cluster
	opts    Options
	ctl     *admission.Controller
	reg     *metrics.Registry
	rec     *obs.Recorder
	start   time.Time

	// latency records per-endpoint request durations in seconds, for the
	// p50/p99/p999 the load harness asserts against.
	latency *metrics.HistogramVec

	overlapQueries  atomic.Int64
	coverageQueries atomic.Int64
	batchRequests   atomic.Int64
	batchQueries    atomic.Int64
	ingestMutations atomic.Int64
	clientErrors    atomic.Int64
	serverErrors    atomic.Int64
}

// New creates a gateway over the center with zero Options.
func New(center *federation.Center) *Gateway {
	return NewWithOptions(center, Options{})
}

// NewWithOptions creates a single-center gateway with admission control
// and observability configured.
func NewWithOptions(center *federation.Center, opts Options) *Gateway {
	return newGateway(center, center.Grid, center.Metrics, nil, opts)
}

// NewCluster creates a gateway over a sharded cluster plane: queries run
// in the cluster's own engine and reach the sources through the centers,
// and the cluster's health/failover counters join /stats and /healthz.
func NewCluster(cl *federation.Cluster, opts Options) *Gateway {
	return newGateway(cl, cl.Grid, cl.Metrics, cl, opts)
}

func newGateway(b Backend, grid geo.Grid, pm *transport.Metrics, cl *federation.Cluster, opts Options) *Gateway {
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	g := &Gateway{
		backend:     b,
		grid:        grid,
		peerMetrics: pm,
		cluster:     cl,
		opts:        opts,
		ctl:         admission.New(opts.Admission),
		reg:         metrics.NewRegistry(),
		rec: obs.NewRecorder(obs.RecorderOptions{
			Capacity:      opts.TraceCapacity,
			SlowThreshold: opts.SlowTrace,
			Logger:        logger,
		}),
		start:   time.Now(),
		latency: metrics.NewHistogramVec(metrics.DefLatencyBuckets()),
	}
	g.register()
	return g
}

// Admission exposes the gateway's admission controller, e.g. for tests and
// the stats endpoint.
func (g *Gateway) Admission() *admission.Controller { return g.ctl }

// Registry exposes the gateway's metrics registry so embedders (ditsgate,
// the soak harness) can hang extra collectors — an ingest store's WAL
// gauges, say — off the same /metrics page.
func (g *Gateway) Registry() *metrics.Registry { return g.reg }

// register wires every subsystem's counters into the /metrics exposition.
func (g *Gateway) register() {
	gw := func(name, help string, v *atomic.Int64) {
		g.reg.RegisterCounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	gw("dits_gateway_overlap_queries_total", "POST /search/overlap requests accepted", &g.overlapQueries)
	gw("dits_gateway_coverage_queries_total", "POST /search/coverage requests accepted", &g.coverageQueries)
	gw("dits_gateway_batch_requests_total", "POST /search/batch requests accepted", &g.batchRequests)
	gw("dits_gateway_batch_queries_total", "Queries inside accepted batch requests", &g.batchQueries)
	gw("dits_gateway_ingest_mutations_total", "Acknowledged ingest mutations", &g.ingestMutations)
	gw("dits_gateway_client_errors_total", "Requests rejected as client errors (4xx)", &g.clientErrors)
	gw("dits_gateway_server_errors_total", "Requests failed as server errors (5xx)", &g.serverErrors)
	g.reg.RegisterGaugeFunc("dits_gateway_sources", "Registered federation sources",
		func() float64 { return float64(g.backend.NumSources()) })
	g.reg.RegisterCounterFunc("dits_cache_invalidations_total",
		"Cache-invalidation events (mutations + membership changes)",
		func() float64 { return float64(g.backend.CacheInvalidations()) })
	g.reg.RegisterHistogramVec("dits_gateway_request_seconds",
		"Request latency by endpoint", "endpoint", g.latency)
	g.peerMetrics.Register(g.reg)
	g.backend.Cache().Register(g.reg)
	g.ctl.Register(g.reg)
	g.rec.Register(g.reg)
	if g.cluster != nil {
		g.reg.RegisterGaugeFunc("dits_cluster_centers_healthy", "Healthy federation centers",
			func() float64 { return float64(g.cluster.Stats().Healthy) })
		g.reg.RegisterCounterFunc("dits_cluster_failovers_total", "Centers marked down and re-homed",
			func() float64 { return float64(g.cluster.Stats().Failovers) })
		g.reg.RegisterCounterFunc("dits_cluster_rehomed_total", "Sources re-registered by failovers",
			func() float64 { return float64(g.cluster.Stats().Rehomed) })
	}
}

// observe records one request's latency under its endpoint label.
func (g *Gateway) observe(endpoint string, start time.Time) {
	g.latency.With(endpoint).Observe(time.Since(start).Seconds())
}

// statusWriter captures the response status so the trace root records
// whether the request failed.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// traced starts one trace per request: a fresh trace ID (echoed in the
// X-Dits-Trace-Id response header), a root span named for the endpoint,
// and — when the request finishes — a completed-trace record in the ring
// behind GET /debug/traces. Error statuses mark the root span failed.
func (g *Gateway) traced(root string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace()
		ctx, sp := obs.StartSpan(obs.WithTrace(r.Context(), tr), root)
		w.Header().Set("X-Dits-Trace-Id", tr.ID().String())
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		var err error
		if sw.status >= 400 {
			err = fmt.Errorf("HTTP %d", sw.status)
		}
		sp.EndErr(err)
		g.rec.Finish(tr, sp)
	})
}

// traceID returns the request's trace ID in hex ("" when untraced) — the
// exemplar stitched into 5xx error bodies so an operator can jump from a
// failed response straight to its span tree in /debug/traces.
func traceID(r *http.Request) string {
	if tr := obs.TraceFrom(r.Context()); tr != nil {
		return tr.ID().String()
	}
	return ""
}

// Handler returns the gateway's HTTP handler. The query and mutation
// endpoints sit behind the admission middleware; the observability
// endpoints (/stats, /metrics, /healthz, pprof) bypass it so an overloaded
// gateway can still be inspected.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	// The trace wrapper sits OUTSIDE admission so the admission.wait span
	// (token check + queue time) lands inside the request's trace.
	guard := func(root string, h http.HandlerFunc) http.Handler {
		return g.traced(root, g.ctl.Middleware(h))
	}
	mux.Handle("POST /search/overlap", guard("http.overlap", g.handleOverlap))
	mux.Handle("POST /search/coverage", guard("http.coverage", g.handleCoverage))
	mux.Handle("POST /search/batch", guard("http.batch", g.handleBatch))
	mux.Handle("POST /ingest/dataset", guard("http.ingest.put", g.handleIngestPut))
	mux.Handle("DELETE /ingest/dataset", guard("http.ingest.delete", g.handleIngestDelete))
	mux.HandleFunc("GET /stats", g.handleStats)
	mux.Handle("GET /metrics", g.reg.Handler())
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	h := g.rec.DebugHandler()
	mux.Handle("GET /debug/traces", h)
	mux.Handle("GET /debug/traces/", h)
	if g.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// OverlapResult is one ranked dataset in an overlap response.
type OverlapResult struct {
	Source  string `json:"source"`
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Overlap int    `json:"overlap"`
}

// OverlapResponse is the body of a successful POST /search/overlap.
type OverlapResponse struct {
	Results []OverlapResult `json:"results"`
	TookMs  float64         `json:"tookMs"`
}

// CoveragePick is one greedily picked dataset in a coverage response.
type CoveragePick struct {
	Source string `json:"source"`
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Gain   int    `json:"gain"`
}

// CoverageResponse is the body of a successful POST /search/coverage.
type CoverageResponse struct {
	Picked        []CoveragePick `json:"picked"`
	Coverage      int            `json:"coverage"`
	QueryCoverage int            `json:"queryCoverage"`
	TookMs        float64        `json:"tookMs"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Sources         int     `json:"sources"`
	UptimeSeconds   float64 `json:"uptimeSeconds"`
	OverlapQueries  int64   `json:"overlapQueries"`
	CoverageQueries int64   `json:"coverageQueries"`
	BatchRequests   int64   `json:"batchRequests"`
	BatchQueries    int64   `json:"batchQueries"`
	IngestMutations int64   `json:"ingestMutations"`
	ClientErrors    int64   `json:"clientErrors"`
	ServerErrors    int64   `json:"serverErrors"`

	CacheHits      int64   `json:"cacheHits"`
	CacheMisses    int64   `json:"cacheMisses"`
	CacheHitRate   float64 `json:"cacheHitRate"`
	CacheEntries   int     `json:"cacheEntries"`
	CacheCapacity  int     `json:"cacheCapacity"`
	PeerMessages   int64   `json:"peerMessages"`
	PeerBytesSent  int64   `json:"peerBytesSent"`
	PeerBytesRecvd int64   `json:"peerBytesReceived"`

	// MembershipEpoch identifies the current membership generation; it
	// increments whenever a source registers or unregisters.
	MembershipEpoch uint64 `json:"membershipEpoch"`
	// PeerMethodStats breaks the transport counters down per federation
	// protocol method (request/response bytes and call counts).
	PeerMethodStats map[string]transport.MethodStats `json:"peerMethodStats,omitempty"`
	// SourceFailures counts failed exchanges per source, populated when
	// the center runs the skip-and-record failure policy.
	SourceFailures map[string]int64 `json:"sourceFailures,omitempty"`

	// CacheInvalidations counts cache-invalidation events — one per
	// applied dataset mutation, one per membership epoch change.
	CacheInvalidations int64 `json:"cacheInvalidations"`
	// SourceVersions is the center's data-version vector: the version of
	// every source mutated through this center. Cached results are keyed
	// by these versions, so the vector tells exactly which data any
	// cached answer can be built from.
	SourceVersions map[string]uint64 `json:"sourceVersions,omitempty"`

	// Admission reports the overload-protection counters: admitted and
	// shed requests, deadline hits, and the live in-flight/queued levels.
	Admission admission.Stats `json:"admission"`

	// Cluster reports the sharded plane's health and failover counters;
	// absent in single-center mode.
	Cluster *federation.ClusterStats `json:"cluster,omitempty"`
}

// errorResponse is the body of every non-2xx response. TraceID is set on
// 5xx/504 responses as an exemplar pointing into GET /debug/traces/{id}.
type errorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"traceId,omitempty"`
}

func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (g *Gateway) badRequest(w http.ResponseWriter, format string, args ...any) {
	g.clientErrors.Add(1)
	g.writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeError maps a failure to read the body: an oversized body is 413
// (the client must not retry the same payload), anything else is 400.
func (g *Gateway) decodeError(w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		g.clientErrors.Add(1)
		g.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit),
		})
		return
	}
	g.badRequest(w, "bad request body: %v", err)
}

// writeSearchError maps a federated search failure onto HTTP: a query that
// ran out of its admission deadline is 504 (the gateway gave up, not the
// federation), everything else is 502. The deadline may surface directly
// (context.DeadlineExceeded) or laundered through the wire as a remote or
// I/O-timeout error string — so an expired request context is checked
// too; it is authoritative for "whose fault was this".
func (g *Gateway) writeSearchError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(r.Context().Err(), context.DeadlineExceeded) {
		g.ctl.RecordDeadlineExceeded()
		g.serverErrors.Add(1)
		g.writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error(), TraceID: traceID(r)})
		return
	}
	g.serverErrors.Add(1)
	g.writeJSON(w, http.StatusBadGateway, errorResponse{Error: err.Error(), TraceID: traceID(r)})
}

func (g *Gateway) handleOverlap(w http.ResponseWriter, r *http.Request) {
	q, ok := decodeBody(g, w, r, decodeSearch)
	if !ok {
		return
	}
	g.overlapQueries.Add(1)
	start := time.Now()
	defer g.observe("overlap", start)
	rs, err := g.backend.OverlapSearch(r.Context(), q.cells, q.k)
	if err != nil {
		g.writeSearchError(w, r, err)
		return
	}
	resp := OverlapResponse{
		Results: make([]OverlapResult, len(rs)),
		TookMs:  float64(time.Since(start).Microseconds()) / 1000,
	}
	for i, res := range rs {
		resp.Results[i] = OverlapResult{Source: res.Source, ID: res.ID, Name: res.Name, Overlap: res.Overlap}
	}
	g.writeJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleCoverage(w http.ResponseWriter, r *http.Request) {
	q, ok := decodeBody(g, w, r, decodeSearch)
	if !ok {
		return
	}
	delta := defaultDelta
	if q.hasDelta {
		delta = q.delta
	}
	g.coverageQueries.Add(1)
	start := time.Now()
	defer g.observe("coverage", start)
	res, err := g.backend.CoverageSearch(r.Context(), q.cells, delta, q.k)
	if err != nil {
		g.writeSearchError(w, r, err)
		return
	}
	resp := CoverageResponse{
		Picked:        make([]CoveragePick, len(res.Picked)),
		Coverage:      res.Coverage,
		QueryCoverage: res.QueryCoverage,
		TookMs:        float64(time.Since(start).Microseconds()) / 1000,
	}
	for i, p := range res.Picked {
		resp.Picked[i] = CoveragePick{Source: p.Source, ID: p.ID, Name: p.Name, Gain: p.Overlap}
	}
	g.writeJSON(w, http.StatusOK, resp)
}

// BatchSearchResponse answers a batch: Results[i] holds query i's ranked
// datasets, exactly what /search/overlap would have returned for it.
type BatchSearchResponse struct {
	Results [][]OverlapResult `json:"results"`
	TookMs  float64           `json:"tookMs"`
}

// handleBatch serves POST /search/batch: up to maxBatchQueries overlap
// queries, each validated like a single /search/overlap body (delta is
// rejected — a batch is overlap-only).
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	batch, ok := decodeBody(g, w, r, decodeBatch)
	if !ok {
		return
	}
	g.batchRequests.Add(1)
	g.batchQueries.Add(int64(len(batch)))
	start := time.Now()
	defer g.observe("batch", start)
	outs, err := g.backend.OverlapSearchBatch(r.Context(), batch)
	if err != nil {
		g.writeSearchError(w, r, err)
		return
	}
	resp := BatchSearchResponse{
		Results: make([][]OverlapResult, len(outs)),
		TookMs:  float64(time.Since(start).Microseconds()) / 1000,
	}
	for i, rs := range outs {
		resp.Results[i] = make([]OverlapResult, len(rs))
		for j, res := range rs {
			resp.Results[i][j] = OverlapResult{Source: res.Source, ID: res.ID, Name: res.Name, Overlap: res.Overlap}
		}
	}
	g.writeJSON(w, http.StatusOK, resp)
}

// IngestRequest is the body of POST /ingest/dataset as a Go client
// marshals it: the target source, the dataset ID (upsert: insert when new,
// replace when it exists), and the data as raw points (gridded under the
// federation's shared grid) or precomputed cell IDs — exactly one of the
// two. The gateway does not decode into it; decodeIngest reads the body.
type IngestRequest struct {
	Source string       `json:"source"`
	ID     int          `json:"id"`
	Name   string       `json:"name,omitempty"`
	Points [][2]float64 `json:"points,omitempty"`
	Cells  []uint64     `json:"cells,omitempty"`
}

// IngestResponse answers both ingest endpoints. Version is the source's
// data version after the mutation; every cached search answer the
// mutation could affect is invalidated before the response is sent.
type IngestResponse struct {
	Source      string  `json:"source"`
	ID          int     `json:"id"`
	Found       bool    `json:"found"`
	Version     uint64  `json:"version"`
	NumDatasets int     `json:"numDatasets"`
	TookMs      float64 `json:"tookMs"`
}

func (g *Gateway) handleIngestPut(w http.ResponseWriter, r *http.Request) {
	in, ok := decodeBody(g, w, r, decodeIngest)
	if !ok {
		return
	}
	start := time.Now()
	defer g.observe("ingest", start)
	res, err := g.backend.PutDataset(r.Context(), in.source, in.id, in.name, in.cells)
	if err != nil {
		g.writeMutationError(w, r, err)
		return
	}
	g.ingestMutations.Add(1)
	g.writeJSON(w, http.StatusOK, IngestResponse{
		Source: res.Source, ID: res.ID, Found: res.Found,
		Version: res.Version, NumDatasets: res.NumDatasets,
		TookMs: float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (g *Gateway) handleIngestDelete(w http.ResponseWriter, r *http.Request) {
	source := r.URL.Query().Get("source")
	idStr := r.URL.Query().Get("id")
	if source == "" || idStr == "" {
		g.badRequest(w, "query parameters source and id are required")
		return
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		g.badRequest(w, "bad id %q: %v", idStr, err)
		return
	}
	start := time.Now()
	defer g.observe("ingest", start)
	res, err := g.backend.DeleteDataset(r.Context(), source, id)
	if err != nil {
		g.writeMutationError(w, r, err)
		return
	}
	if !res.Found {
		g.clientErrors.Add(1)
		g.writeJSON(w, http.StatusNotFound, errorResponse{
			Error: fmt.Sprintf("source %s holds no dataset %d", source, id),
		})
		return
	}
	g.ingestMutations.Add(1)
	g.writeJSON(w, http.StatusOK, IngestResponse{
		Source: res.Source, ID: res.ID, Found: true,
		Version: res.Version, NumDatasets: res.NumDatasets,
		TookMs: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// writeMutationError maps a center mutation failure onto HTTP: an unknown
// source name is the client's mistake (404), a deadline overrun is 504,
// everything else is a federation failure (502).
func (g *Gateway) writeMutationError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, federation.ErrUnknownSource) {
		g.clientErrors.Add(1)
		g.writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	g.writeSearchError(w, r, err)
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	st := g.backend.Cache().Stats()
	resp := StatsResponse{
		Sources:         g.backend.NumSources(),
		UptimeSeconds:   time.Since(g.start).Seconds(),
		OverlapQueries:  g.overlapQueries.Load(),
		CoverageQueries: g.coverageQueries.Load(),
		BatchRequests:   g.batchRequests.Load(),
		BatchQueries:    g.batchQueries.Load(),
		IngestMutations: g.ingestMutations.Load(),
		ClientErrors:    g.clientErrors.Load(),
		ServerErrors:    g.serverErrors.Load(),
		CacheHits:       st.Hits,
		CacheMisses:     st.Misses,
		CacheHitRate:    st.HitRate(),
		CacheEntries:    st.Len,
		CacheCapacity:   st.Capacity,
		PeerMessages:    g.peerMetrics.Messages(),
		PeerBytesSent:   g.peerMetrics.BytesSent(),
		PeerBytesRecvd:  g.peerMetrics.BytesReceived(),
		MembershipEpoch: g.backend.Generation(),
		PeerMethodStats: g.peerMetrics.PerMethod(),
		SourceFailures:  g.peerMetrics.Failures(),

		CacheInvalidations: g.backend.CacheInvalidations(),
		SourceVersions:     g.backend.SourceVersions(),
		Admission:          g.ctl.Stats(),
	}
	if g.cluster != nil {
		cst := g.cluster.Stats()
		resp.Cluster = &cst
	}
	g.writeJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	n := g.backend.NumSources()
	status := http.StatusOK
	state := "ok"
	if n == 0 {
		status = http.StatusServiceUnavailable
		state = "no sources"
	}
	body := map[string]any{"status": state, "sources": n}
	if g.cluster != nil {
		cst := g.cluster.Stats()
		body["centers"] = cst.Centers
		body["healthyCenters"] = cst.Healthy
		if cst.Healthy == 0 {
			status = http.StatusServiceUnavailable
			body["status"] = "no healthy centers"
		}
	}
	g.writeJSON(w, status, body)
}

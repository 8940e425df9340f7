package main

import "time"

// class is one kind of request the generator sends. Each class keeps its
// own latency samples: classes are never blended into one distribution.
type class uint8

const (
	classOJSP    class = iota // POST /search/overlap, never-repeating query
	classOJSPHot              // POST /search/overlap from the Zipf hot pool
	classCJSP                 // POST /search/coverage, never-repeating query
	classBatch                // POST /search/batch of batchSize never-repeating queries
	classMutate               // next entry of the mutation trace (put or delete)
	numClasses
)

// reportName is the name a class's timings are printed under: the two
// OJSP classes share one, because a user cannot tell them apart.
var reportName = [numClasses]string{"ojsp", "ojsp", "cjsp", "batch", "ingest"}

// timingNames are the distinct report names, in print order.
var timingNames = []string{"ojsp", "cjsp", "batch", "ingest"}

const (
	batchSize  = 16
	hotPool    = 256
	zipfS      = 1.1
	cjspK      = 5
	cjspDelta  = 10.0
	ojspK      = 10
	gridTheta  = 12
	leafCap    = 30      // DITS-L leaf capacity f
	dataSeed   = 1       // the five sources are the same corpus on every seed
	traceLen   = 1 << 12 // mutations generated; a 30 s window sends ~1700
	minCells   = 8       // smaller datasets are not used as queries
	maxOffset  = 4       // cells a query is translated by at most; 2 until those run out
	poolSize   = 8       // ditsgate's shipped -pool default
	cacheSize  = 4096
	snapEvery  = 256
	numCenters = 3
)

// share is one class's fraction of a workload's requests.
type share struct {
	c class
	p float64
}

// workloadSpec fixes one workload: the stack it stands up and the traffic
// it sends. Everything a later change could be tempted to tune lives here,
// so a diff to this file is a diff to the benchmark.
type workloadSpec struct {
	name    string
	why     string
	scale   float64
	cluster bool     // gateway -> 3 CenterServers -> sources, else one center
	mutable []string // sources served through an ingest.Store
	rate    float64  // open-loop requests/second; 0 = closed loop
	mix     []share
	primary class // the class search_p50_ms times
	setups  int   // stack builds per run; setup_s is their median
}

var workloads = []workloadSpec{
	{
		name:  "ojsp-large",
		why:   "OJSP only at scale 0.5: the one workload where search/exec, index/dits and cellset kernels are a large share of a query, and where setup_s is dits.Build",
		scale: 0.5, mix: []share{{classOJSP, 1}}, primary: classOJSP, setups: 3,
	},
	{
		name:  "cjsp-small",
		why:   "CJSP only at scale 0.05: the dominant user-visible latency; source coverage rounds do the work, gateway and transport almost none",
		scale: 0.05, mix: []share{{classCJSP, 1}}, primary: classCJSP, setups: 9,
	},
	{
		name:  "mixed-rw",
		why:   "open loop at 200 req/s: Zipf cache hits beside version-bump invalidations, batches, WAL appends and snapshot compactions under the store lock",
		scale: 0.05, mutable: []string{"Transit", "NYU"}, rate: 200,
		mix:     []share{{classOJSPHot, 0.5}, {classOJSP, 0.2}, {classBatch, 0.1}, {classMutate, 0.2}},
		primary: classOJSP, setups: 9,
	},
	{
		name:  "cluster-mix",
		why:   "90% OJSP / 10% CJSP through gateway -> 3 centers -> sharded sources: the extra hop, scatter/gather merge and cluster.covstep",
		scale: 0.05, cluster: true,
		mix:     []share{{classOJSP, 0.9}, {classCJSP, 0.1}},
		primary: classOJSP, setups: 9,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// windows are the phase lengths of one run.
type windows struct {
	warm   time.Duration // discarded
	timed  time.Duration // wrappers off: end-to-end metrics
	traced time.Duration // wrappers recording two requests in three: per-layer metrics
}

// metricDef declares one metric: BENCHMARK.json is generated from, and
// tested against, these tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end metrics only
}

// endToEnd are the gated metrics. Every workload reports every one of
// them, and none can read zero, because the acceptance pipeline takes
// relative spreads of each on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"comm_bytes_per_query", "B", "lower", 0.10},
	{"comm_msgs_per_query", "count", "lower", 0.10},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.20},
}

// wireMethods are the source-protocol methods reported one by one.
var wireMethods = []string{"overlap.search", "search.batch", "coverage.round", "coverage.fetch", "dataset.put"}

// perLayer lists the per-layer metrics in print order. A metric whose
// layer a workload does not exercise reads 0 there (see README).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo, hi := "lower", "higher"
	m := []metricDef{
		{"load.sent", "count", hi, 0},
		{"load.fail_share", "ratio", lo, 0},
		{"load.late_p99_ms", "ms", lo, 0},
		{"load.gen_cpu_share", "ratio", lo, 0},
		{"load.ojsp_p50_ms", "ms", lo, 0},
		{"load.ojsp_p90_ms", "ms", lo, 0},
		{"load.ojsp_ptail_ms", "ms", lo, 0},
		{"load.cjsp_p50_ms", "ms", lo, 0},
		{"load.cjsp_p90_ms", "ms", lo, 0},
		{"load.cjsp_ptail_ms", "ms", lo, 0},
		{"load.batch_p50_ms", "ms", lo, 0},
		{"load.batch_ptail_ms", "ms", lo, 0},
		{"load.ingest_p50_ms", "ms", lo, 0},
		{"load.ingest_p90_ms", "ms", lo, 0},
		{"load.ingest_ptail_ms", "ms", lo, 0},
		{"gateway.self_ms_p50", "ms", lo, 0},
		{"gateway.req_kb_p50", "KiB", lo, 0},
		{"admission.admit_ns", "ns", lo, 0},
		{"cache.hit_ratio", "ratio", hi, 0},
		{"cache.invalidations", "count", lo, 0},
		{"cache.probe_ns", "ns", lo, 0},
		{"federation.center_self_ms_p50", "ms", lo, 0},
		{"federation.fanout_per_ojsp", "count", lo, 0},
		{"federation.rounds_per_cjsp", "count", lo, 0},
		{"federation.msgs_per_cjsp", "count", lo, 0},
		{"federation.straggler_ratio", "ratio", lo, 0},
		{"federation.cluster_hop_ms_p50", "ms", lo, 0},
	}
	for _, w := range wireMethods {
		m = append(m, metricDef{"transport.wire_ms_p50." + w, "ms", lo, 0})
	}
	for _, w := range wireMethods {
		m = append(m, metricDef{"transport.bytes_per_call." + w, "B", lo, 0})
	}
	m = append(m,
		metricDef{"transport.encode_ns_per_kb", "ns/KiB", lo, 0},
		metricDef{"transport.decode_ns_per_kb", "ns/KiB", lo, 0},
		metricDef{"transport.pool_dials", "count", lo, 0},
		metricDef{"transport.wire_share", "ratio", lo, 0},
	)
	for _, w := range wireMethods {
		m = append(m, metricDef{"source.serve_ms_p50." + w, "ms", lo, 0})
	}
	return append(m,
		metricDef{"source.serve_share", "ratio", lo, 0},
		metricDef{"source.busy_share", "ratio", lo, 0},
		metricDef{"exec.overlap_us_p50", "us", lo, 0},
		metricDef{"exec.coverage_ms_p50", "ms", lo, 0},
		metricDef{"exec.connectset_ms_p50", "ms", lo, 0},
		metricDef{"exec.pickbest_us_p50", "us", lo, 0},
		metricDef{"exec.batch16_speedup", "ratio", hi, 0},
		metricDef{"exec.leaf_tasks_per_query", "count", lo, 0},
		metricDef{"exec.serial_share", "ratio", lo, 0},
		metricDef{"dits.build_s", "s", lo, 0},
		metricDef{"dits.nodes", "count", lo, 0},
		metricDef{"dits.height", "count", lo, 0},
		metricDef{"dits.memory_mb", "MiB", lo, 0},
		metricDef{"dits.insert_us_p50", "us", lo, 0},
		metricDef{"dits.delete_us_p50", "us", lo, 0},
		metricDef{"dits.global_candidates_us", "us", lo, 0},
		metricDef{"cellset.intersect_ns", "ns", lo, 0},
		metricDef{"cellset.marginal_gain_ns", "ns", lo, 0},
		metricDef{"cellset.fromset_ns_per_cell", "ns", lo, 0},
		metricDef{"cellset.wire_bytes_per_cell", "B", lo, 0},
		metricDef{"geo.grid_ns_per_point", "ns", lo, 0},
		metricDef{"ingest.put_us_p50", "us", lo, 0},
		metricDef{"ingest.put_fsync_us_p50", "us", lo, 0},
		metricDef{"ingest.wal_bytes_per_put", "B", lo, 0},
		metricDef{"ingest.snapshot_ms", "ms", lo, 0},
		metricDef{"ingest.snapshots", "count", lo, 0},
		metricDef{"ingest.recover_ms", "ms", lo, 0},
		metricDef{"ditsfile.write_ms", "ms", lo, 0},
		metricDef{"ditsfile.loadheap_ms", "ms", lo, 0},
		metricDef{"ditsfile.open_mmap_ms", "ms", lo, 0},
		metricDef{"ditsfile.bytes_per_dataset", "B", lo, 0},
		metricDef{"proc.alloc_kb_per_query", "KiB", lo, 0},
		metricDef{"proc.gc_pause_ms_total", "ms", lo, 0},
		metricDef{"proc.goroutines_end", "count", lo, 0},
		metricDef{"bench.trace_overhead_pct", "%", lo, 0},
	)
}

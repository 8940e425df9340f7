// Command ditscenter runs one federation center of a sharded cluster: it
// serves the cluster protocol (cluster.info, cluster.register/unregister,
// cluster.overlap/batch/forward, cluster.put/delete) over TCP, dials the
// sources a gateway assigns to its shard, answers OJSP scatter/gather
// queries over exactly those sources, and relays the gateway's CJSP
// session rounds to them (cluster.forward).
//
// With -memberlog the accepted membership is persisted through the same
// torn-tail-tolerant framed log the ingest WAL uses: a restarted center
// replays the log and re-adopts its shard with no gateway involvement. A
// logged source that cannot be re-dialed at boot is skipped (and logged),
// not fatal — the gateway's health plane re-registers it when it
// reconciles.
//
// Usage:
//
//	ditsserve -source data/Transit.gob -addr 127.0.0.1:7101 -bounds=-180,-90,180,90 -theta 12
//	ditscenter -addr 127.0.0.1:7201 -name center-a \
//	           -bounds=-180,-90,180,90 -theta 12 -memberlog state/center-a/members.log
//	ditsgate -addr 127.0.0.1:8080 -cluster center-a=127.0.0.1:7201,center-b=127.0.0.1:7202 \
//	         -cluster-sources Transit=127.0.0.1:7101 -bounds=-180,-90,180,90 -theta 12
//
// -bounds and -theta must match the sources and the gateway: the grid
// derived from them defines the cell IDs the whole federation shares.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dits/internal/cache"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/metrics"
	"dits/internal/obs"
	"dits/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	name := flag.String("name", "", "this center's cluster name (required; the gateway addresses shards by it)")
	theta := flag.Int("theta", 12, "grid resolution θ (must match the federation)")
	boundsFlag := flag.String("bounds", "", "shared world bounds minX,minY,maxX,maxY (required; must match the sources)")
	memberLog := flag.String("memberlog", "", "membership log path; empty = membership is lost on restart")
	fsyncFlag := flag.Bool("fsync", true, "flush every membership append before acknowledging it")
	poolSize := flag.Int("pool", 8, "TCP connections per source")
	cacheSize := flag.Int("cache", 4096, "result cache capacity in entries (0 disables)")
	workers := flag.Int("workers", 0, "worker pool for batch prep and merge (0 = GOMAXPROCS)")
	noFilter := flag.Bool("no-filter", false, "disable DITS-G candidate filtering")
	noClip := flag.Bool("no-clip", false, "disable per-source query clipping")
	stateless := flag.Bool("stateless", false, "disable the CJSP session protocol (ship full state every round)")
	tolerant := flag.Bool("tolerant", false, "skip failed sources mid-query instead of failing the query")
	logFile := flag.String("log-file", "", "append operational logs to this file instead of stderr")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text exposition, pprof, and /debug/traces at this address (empty = off)")
	slowQuery := flag.Duration("slow-query", 0, "log any served request whose trace lasts at least this long, with its full span tree (0 disables)")
	flag.Parse()

	logger, logClose, err := obs.OpenLogger(*logFile, *logFormat)
	if err != nil {
		fail(err)
	}
	defer logClose()

	if *name == "" {
		fail(fmt.Errorf("-name is required (the cluster addresses shards by center name)"))
	}
	if *boundsFlag == "" {
		fail(fmt.Errorf("-bounds is required and must match the sources' -bounds"))
	}
	bounds, err := parseBounds(*boundsFlag)
	if err != nil {
		fail(err)
	}

	opts := federation.Options{GlobalFilter: !*noFilter, ClipQuery: !*noClip, Sessions: !*stateless, Workers: *workers}
	if *tolerant {
		opts.OnSourceError = federation.SkipFailed
	}
	center := federation.NewCenter(geo.NewGrid(*theta, bounds), opts)
	center.SetCache(cache.New(*cacheSize))

	cs, err := federation.NewCenterServer(*name, center, federation.CenterServerOptions{
		MemberLog: *memberLog,
		Fsync:     *fsyncFlag,
		PoolSize:  *poolSize,
	})
	if err != nil {
		fail(err)
	}
	defer cs.Close()
	if skipped := cs.Skipped(); len(skipped) > 0 {
		logger.Warn("skipped unreachable logged members; the gateway re-registers them on reconcile",
			"count", len(skipped), "members", strings.Join(skipped, ", "))
	}

	rec := obs.NewRecorder(obs.RecorderOptions{SlowThreshold: *slowQuery, Logger: logger})
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		reg.RegisterGaugeFunc("dits_center_sources", "Sources registered at this center's shard",
			func() float64 { return float64(center.NumSources()) })
		rec.Register(reg)
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		mux.Handle("GET /debug/traces", rec.DebugHandler())
		mux.Handle("GET /debug/traces/", rec.DebugHandler())
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go msrv.ListenAndServe()
		defer msrv.Close()
		logger.Info("metrics listener up", "addr", *metricsAddr)
	}

	ts, err := transport.ServeWith(*addr, cs.Handler(), transport.ServeConfig{Recorder: rec})
	if err != nil {
		fail(err)
	}
	defer ts.Close()
	logger.Info("center serving",
		"center", *name, "sources", center.NumSources(), "addr", ts.Addr(),
		"memberlog", *memberLog, "cache", *cacheSize)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
}

func parseBounds(s string) (geo.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geo.Rect{}, fmt.Errorf("bounds must be minX,minY,maxX,maxY, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geo.Rect{}, fmt.Errorf("bad bounds component %q: %w", p, err)
		}
		vals[i] = v
	}
	r := geo.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
	if r.IsEmpty() {
		return geo.Rect{}, fmt.Errorf("bounds %q are empty", s)
	}
	return r, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ditscenter:", err)
	os.Exit(1)
}

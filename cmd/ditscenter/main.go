// Command ditscenter runs one federation center of a sharded cluster: it
// serves the cluster protocol (cluster.info, cluster.register,
// cluster.forward) over TCP, dials the sources a gateway assigns to its
// shard, and relays the gateway's calls to them over those connections.
// It runs no query of its own — pruning, clipping, the failure policy,
// the result cache and the merge all live in the gateway — so it needs no
// grid and no query options.
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
//	ditscenter -addr 127.0.0.1:7201 -name center-a -memberlog state/center-a/members.log
//	ditsgate -addr 127.0.0.1:8080 -cluster center-a=127.0.0.1:7201,center-b=127.0.0.1:7202 \
//	         -cluster-sources Transit=127.0.0.1:7101 -bounds=-180,-90,180,90 -theta 12
//
// The sources are ditsserve processes started exactly as for a
// single-center gateway; the gateway and the sources share the grid.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/metrics"
	"dits/internal/obs"
	"dits/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	name := flag.String("name", "", "this center's cluster name (required; the gateway addresses shards by it)")
	memberLog := flag.String("memberlog", "", "membership log path; empty = membership is lost on restart")
	fsyncFlag := flag.Bool("fsync", true, "flush every membership append before acknowledging it")
	poolSize := flag.Int("pool", 8, "TCP connections per source")
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
	// The center is the shard's roster; it answers no query, so its grid
	// and options go unused.
	center := federation.NewCenter(geo.Grid{}, federation.Options{})

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
		"memberlog", *memberLog)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ditscenter:", err)
	os.Exit(1)
}

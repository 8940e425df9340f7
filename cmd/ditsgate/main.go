// Command ditsgate is the HTTP/JSON gateway of a federation: it connects
// to running ditsserve sources over pooled TCP connections, maintains the
// DITS-G global index and a sharded LRU result cache, and serves search
// queries to ordinary HTTP clients.
//
// Usage:
//
//	datagen -out data -bounds=-180,-90,180,90 -theta 12
//	ditsserve -source data/Transit.dsnap -addr 127.0.0.1:7101
//	ditsserve -source data/Baidu.dsnap   -addr 127.0.0.1:7102
//	ditsgate -addr 127.0.0.1:8080 -remote 127.0.0.1:7101,127.0.0.1:7102 \
//	         -bounds=-180,-90,180,90 -theta 12 -pool 8 -cache 4096
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/search/overlap \
//	     -d '{"points":[[116.3,39.9],[116.4,39.95]],"k":5}'
//
// With -cluster the gateway fronts a sharded plane of ditscenter
// processes instead of dialing the sources itself: the -cluster-sources
// roster is partitioned across the centers by consistent hash, the
// gateway still runs every query and mutation (so -cache, -no-filter,
// -no-clip and -tolerant apply in both modes, and answers are
// byte-identical to the single-center ones), and each source call is
// relayed by the source's owner center. A center that stops answering is
// failed over — its shard re-homes onto the survivors. A source listed
// with `Name=primary+replica` addresses is served through its replica when
// the primary dies.
//
// -bounds and -theta must match the values datagen gridded the sources'
// files with: the grid derived from them defines the cell IDs the whole
// federation shares, and a source on another grid is refused. See
// docs/PROTOCOL.md for the endpoint payloads.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dits/internal/admission"
	"dits/internal/cache"
	"dits/internal/federation"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/obs"
	"dits/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	remote := flag.String("remote", "", "comma-separated ditsserve addresses (single-center mode)")
	clusterFlag := flag.String("cluster", "", "comma-separated name=addr ditscenter endpoints (cluster mode; mutually exclusive with -remote)")
	clusterSources := flag.String("cluster-sources", "", "comma-separated Name=addr[+replica...] source roster for -cluster; '+' separates the primary from read replicas")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "period between center health probes in cluster mode (0 disables)")
	theta := flag.Int("theta", 12, "grid resolution θ (must match the sources)")
	boundsFlag := flag.String("bounds", "", "shared world bounds minX,minY,maxX,maxY (required; must match the sources)")
	poolSize := flag.Int("pool", 8, "TCP connections per source")
	cacheSize := flag.Int("cache", 4096, "result cache capacity in entries (0 disables)")
	noFilter := flag.Bool("no-filter", false, "disable DITS-G candidate filtering")
	noClip := flag.Bool("no-clip", false, "disable per-source query clipping")
	tolerant := flag.Bool("tolerant", false, "skip failed sources mid-query instead of failing the query")
	rateLimit := flag.Float64("rate-limit", 0, "per-client request rate limit in req/s (0 disables)")
	burst := flag.Int("burst", 0, "per-client burst size (0 = ceil(rate-limit))")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing requests (0 = unbounded)")
	maxQueue := flag.Int("max-queue", 0, "max requests queued for an in-flight slot before shedding")
	deadline := flag.Duration("deadline", 0, "per-request deadline propagated to the sources (0 = none)")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	logFile := flag.String("log-file", "", "append operational logs to this file instead of stderr")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	slowQuery := flag.Duration("slow-query", 0, "log any request whose trace lasts at least this long, with its full span tree (0 disables)")
	traceRing := flag.Int("trace-ring", 0, "completed traces kept for GET /debug/traces (0 = default capacity)")
	flag.Parse()

	logger, logClose, err := obs.OpenLogger(*logFile, *logFormat)
	if err != nil {
		fail(err)
	}
	defer logClose()

	if (*remote == "") == (*clusterFlag == "") {
		fail(fmt.Errorf("exactly one of -remote (single-center) or -cluster (sharded) is required"))
	}
	if *clusterFlag != "" && *clusterSources == "" {
		fail(fmt.Errorf("-cluster requires -cluster-sources (the roster to shard across the centers)"))
	}
	if *boundsFlag == "" {
		fail(fmt.Errorf("-bounds is required and must match the sources' -bounds"))
	}
	bounds, err := geo.ParseRect(*boundsFlag)
	if err != nil {
		fail(err)
	}
	grid := geo.NewGrid(*theta, bounds)

	gwOpts := gateway.Options{
		Admission: admission.Config{
			Rate:        *rateLimit,
			Burst:       *burst,
			MaxInFlight: *maxInflight,
			MaxQueue:    *maxQueue,
			Deadline:    *deadline,
		},
		EnablePprof:   *pprofFlag,
		SlowTrace:     *slowQuery,
		TraceCapacity: *traceRing,
		Logger:        logger,
	}

	opts := federation.Options{GlobalFilter: !*noFilter, ClipQuery: !*noClip, Sessions: true}
	if *tolerant {
		opts.OnSourceError = federation.SkipFailed
	}
	var gw *gateway.Gateway
	var describe string
	if *clusterFlag != "" {
		cluster, err := buildCluster(grid, *clusterFlag, *clusterSources, *poolSize, logger)
		if err != nil {
			fail(err)
		}
		cluster.SetOptions(opts)
		cluster.SetCache(cache.New(*cacheSize))
		defer cluster.Close()
		if *healthInterval > 0 {
			go func() {
				for range time.Tick(*healthInterval) {
					ctx, cancel := context.WithTimeout(context.Background(), *healthInterval)
					if downed := cluster.Probe(ctx); downed > 0 {
						st := cluster.Stats()
						logger.Warn("health probe failed over centers",
							"downed", downed, "healthy", st.Healthy,
							"centers", st.Centers, "generation", st.Generation)
					}
					cancel()
				}
			}()
		}
		gw = gateway.NewCluster(cluster, gwOpts)
		st := cluster.Stats()
		describe = fmt.Sprintf("%d sources sharded over %d centers", cluster.NumSources(), st.Centers)
	} else {
		center := federation.NewCenter(grid, opts)
		center.SetCache(cache.New(*cacheSize))
		for _, a := range strings.Split(*remote, ",") {
			a = strings.TrimSpace(a)
			pool := transport.DialPool(a, a, *poolSize, center.Metrics)
			summary, err := center.RegisterRemote(context.Background(), pool)
			if err != nil {
				fail(fmt.Errorf("register %s: %w", a, err))
			}
			logger.Info("registered source",
				"source", summary.Name, "addr", a, "pool", *poolSize)
		}
		gw = gateway.NewWithOptions(center, gwOpts)
		describe = fmt.Sprintf("%d sources", center.NumSources())
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("gateway serving", "federation", describe, "addr", *addr, "cache", *cacheSize)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fail(err)
	case <-stop:
		logger.Info("shutting down")
		srv.Close()
	}
}

// buildCluster dials the ditscenter endpoints of -cluster, builds the
// sharded plane, and registers the -cluster-sources roster across it.
func buildCluster(grid geo.Grid, centersSpec, sourcesSpec string, poolSize int, logger *slog.Logger) (*federation.Cluster, error) {
	met := &transport.Metrics{}
	peers := make(map[string]transport.Peer)
	for _, part := range strings.Split(centersSpec, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("-cluster entry %q must be name=addr", part)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("-cluster names center %q twice", name)
		}
		peers[name] = transport.DialPool(name, addr, poolSize, met)
	}
	cluster := federation.NewCluster(grid, peers)
	// The pools observe through met; point the cluster's /stats surface at
	// the same counters.
	cluster.Metrics = met
	for _, part := range strings.Split(sourcesSpec, ",") {
		name, addrs, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addrs == "" {
			return nil, fmt.Errorf("-cluster-sources entry %q must be Name=addr[+replica...]", part)
		}
		endpoints := strings.Split(addrs, "+")
		src := federation.ClusterSource{Name: name, Addr: endpoints[0], Replicas: endpoints[1:]}
		if err := cluster.AddSource(context.Background(), src); err != nil {
			return nil, fmt.Errorf("register source %s: %w", name, err)
		}
		logger.Info("sharded source",
			"source", name, "addr", src.Addr, "replicas", len(src.Replicas),
			"center", cluster.Stats().SourceOwners[name])
	}
	return cluster, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ditsgate:", err)
	os.Exit(1)
}

// Command ditsserve runs one autonomous data source: it loads the DITS-L
// snapshot (dsnap/1) that datagen wrote for the source and serves the
// federation protocol (overlap.search, search.batch, coverage.best, the
// coverage.* session methods, dataset.put/delete, source.version,
// source.summary) over TCP until interrupted. The source's name is the
// file's basename; its grid (θ, origin, cell size) and leaf capacity are
// the file's. Every search runs on the query executor
// (internal/search/exec), on the goroutine serving the request, and
// batched requests share one tree pass.
//
// With -wal-dir the source becomes mutable and durable: dataset mutations
// are WAL-logged before they touch the live index (-fsync picks the flush
// policy), compacted into snapshots every -snapshot-every mutations, and
// recovered on restart — the -source file then seeds only the FIRST boot;
// later boots load the snapshot and replay the WAL tail instead. Without
// -wal-dir the source is read-only and mutation RPCs are rejected.
//
// With -replica-of the source runs as a read replica: it refuses local
// mutations and instead pulls the primary's WAL tail (wal.ship) every
// -replica-poll, applying it durably through its own store — so it can be
// promoted, or serve reads behind a dead primary, with the exact history
// the primary acknowledged. A replica that falls behind a primary
// compaction (snapshot gap) must be reseeded; see docs/OPERATIONS.md.
//
// Usage:
//
//	datagen -out data
//	ditsserve -source data/Transit.dsnap -addr 127.0.0.1:7101 \
//	          -wal-dir state/transit -fsync always
//
// The sources of one federation share the grid datagen wrote into their
// files; a center refuses a source on another grid. A center then
// connects with `ditsquery -remote host:port,host:port` for one-shot
// queries, or `ditsgate -remote host:port,host:port` to serve the
// federation to HTTP clients.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"dits/internal/federation"
	"dits/internal/index/dits"
	"dits/internal/index/ditsfile"
	"dits/internal/ingest"
	"dits/internal/metrics"
	"dits/internal/obs"
	"dits/internal/transport"
)

func main() {
	sourcePath := flag.String("source", "", "path to the source's datagen .dsnap snapshot (required; its basename names the source)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	walDir := flag.String("wal-dir", "", "durable ingest state directory (WAL + snapshots); empty = read-only source")
	fsyncMode := flag.String("fsync", "always", "WAL flush policy with -wal-dir: always | never")
	snapEvery := flag.Int("snapshot-every", 256, "mutations between background snapshots with -wal-dir (-1 disables)")
	mmapFlag := flag.Bool("mmap", false, "serve the index from the mmap'd snapshot, faulting leaves in on demand (requires -wal-dir)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the primary at this address, pulling its WAL tail (requires -wal-dir)")
	replicaPoll := flag.Duration("replica-poll", federation.DefaultReplicaPoll, "poll period for -replica-of catch-up pulls")
	ramBudget := flag.Int("ram-budget", 0, "soft Go heap limit in MiB (debug.SetMemoryLimit); 0 = unlimited")
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

	if *sourcePath == "" {
		fail(fmt.Errorf("-source is required"))
	}
	if *mmapFlag && *walDir == "" {
		fail(fmt.Errorf("-mmap requires -wal-dir (the mapped snapshot lives in the store directory)"))
	}
	if *replicaOf != "" && *walDir == "" {
		fail(fmt.Errorf("-replica-of requires -wal-dir (the replica persists the shipped WAL)"))
	}
	if *ramBudget < 0 {
		fail(fmt.Errorf("-ram-budget must be >= 0"))
	}
	if *ramBudget > 0 {
		debug.SetMemoryLimit(int64(*ramBudget) << 20)
	}
	name := strings.TrimSuffix(filepath.Base(*sourcePath), filepath.Ext(*sourcePath))
	load := func() (*dits.Local, error) {
		idx, err := ditsfile.LoadHeap(*sourcePath)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", *sourcePath, err)
		}
		return idx, nil
	}
	var server *federation.SourceServer
	if *walDir != "" {
		fsync, err := ingest.ParseFsyncMode(*fsyncMode)
		if err != nil {
			fail(err)
		}
		store, err := ingest.Open(*walDir, ingest.Options{
			Fsync:         fsync,
			SnapshotEvery: *snapEvery,
			MMap:          *mmapFlag,
			Replica:       *replicaOf != "",
			Bootstrap:     load,
		})
		if err != nil {
			fail(err)
		}
		defer store.Close()
		server = federation.NewSourceServerWithGrid(name, store.Index())
		server.EnableIngest(store)
		st := store.Stats()
		logger.Info("durable state opened",
			"dir", *walDir, "version", st.Version, "replayed", st.Replayed,
			"fsync", st.Fsync, "mmap", st.MMap)
		if *replicaOf != "" {
			primary := transport.DialPool(*replicaOf, *replicaOf, 2, &transport.Metrics{})
			defer primary.Close()
			repl := &federation.Replicator{
				Store:    store,
				Primary:  primary,
				Interval: *replicaPoll,
				OnError:  func(err error) { logger.Warn("replica pull failed, retrying", "err", err) },
			}
			// Best-effort initial catch-up before serving reads; a dead
			// primary at boot is not fatal — the poll loop keeps trying.
			if n, err := repl.CatchUpOnce(context.Background()); err != nil {
				logger.Warn("initial catch-up failed, will retry", "primary", *replicaOf, "err", err)
			} else if n > 0 {
				logger.Info("caught up from primary",
					"records", n, "primary", *replicaOf, "version", store.Version())
			}
			go func() {
				if err := repl.Run(context.Background()); err != nil {
					if errors.Is(err, ingest.ErrSnapshotGap) {
						logger.Error("primary compacted past this replica; reseed it (see docs/OPERATIONS.md, \"Reseed a replica\")",
							"primary", *replicaOf, "version", store.Version())
					} else {
						logger.Error("replication stopped", "err", err)
					}
				}
			}()
			logger.Info("replicating from primary",
				"source", name, "primary", *replicaOf, "poll", *replicaPoll)
		}
	} else {
		idx, err := load()
		if err != nil {
			fail(err)
		}
		server = federation.NewSourceServerWithGrid(name, idx)
	}
	// Read the count before serving: once Serve accepts connections a
	// mutable source's index may change under concurrent dataset.put
	// (and an mmap'd store swaps its index at every snapshot, so the
	// count always goes through the store's lock).
	indexed := server.NumDatasets()

	rec := obs.NewRecorder(obs.RecorderOptions{SlowThreshold: *slowQuery, Logger: logger})
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		reg.RegisterGaugeFunc("dits_source_datasets", "Datasets indexed at this source",
			func() float64 { return float64(server.NumDatasets()) })
		reg.RegisterGaugeFunc("dits_source_sessions", "Live coverage sessions",
			func() float64 { return float64(server.NumSessions()) })
		rec.Register(reg)
		if *walDir != "" {
			server.Store().Register(reg)
		}
		mux := obs.NewMux(reg, rec, true)
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go msrv.ListenAndServe()
		defer msrv.Close()
		logger.Info("metrics listener up", "addr", *metricsAddr)
	}

	ts, err := transport.ServeWith(*addr, server.Handler(), transport.ServeConfig{Recorder: rec})
	if err != nil {
		fail(err)
	}
	defer ts.Close()
	logger.Info("source serving",
		"source", name, "datasets", indexed, "grid", server.Summary().Grid.String(),
		"addr", ts.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ditsserve:", err)
	os.Exit(1)
}

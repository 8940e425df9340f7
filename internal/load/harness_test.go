package load

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"dits/internal/admission"
	"dits/internal/cache"
	"dits/internal/federation"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/transport"
	"dits/internal/workload"
)

// LocalOptions configure StartLocal's self-contained gateway: a small
// generated federation served over a real HTTP listener, so the tests
// exercise the full request path without external processes.
type LocalOptions struct {
	// Sources is how many of the five paper sources to stand up.
	Sources int
	// Scale is the workload scale per source.
	Scale float64
	// Admission configures the gateway's overload protection (zero value
	// admits everything).
	Admission admission.Config
	// Mutable gives the FIRST source a durable ingest store in a temp
	// directory (removed on Close), so the ingest traffic class works.
	Mutable bool
}

// LocalGateway is a running in-process federation behind a real HTTP
// listener. Close releases everything, including the temp WAL directory.
type LocalGateway struct {
	// URL is the gateway base URL, e.g. "http://127.0.0.1:43321".
	URL string
	// IngestSource is the name of the mutable source ("" when none).
	IngestSource string

	srv     *http.Server
	store   *ingest.Store
	tempDir string
}

// StartLocal builds the federation and starts serving it over HTTP on a
// loopback port.
func StartLocal(opts LocalOptions) (*LocalGateway, error) {
	specs := workload.Specs()[:opts.Sources]
	grid := geo.NewGrid(12, geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90})
	center := federation.NewCenter(grid, federation.Options{
		GlobalFilter: true, ClipQuery: true, Sessions: true,
		OnSourceError: federation.SkipFailed,
	})
	center.SetCache(cache.New(4096))

	lg := &LocalGateway{}
	fail := func(err error) (*LocalGateway, error) {
		lg.Close()
		return nil, err
	}
	for i, spec := range specs {
		src := workload.Generate(spec, opts.Scale, 1)
		build := func() (*dits.Local, error) { return dits.Build(grid, src.Nodes(grid), 30), nil }
		var srv *federation.SourceServer
		if opts.Mutable && i == 0 {
			dir, err := os.MkdirTemp("", "ditsload-wal-")
			if err != nil {
				return fail(err)
			}
			lg.tempDir = dir
			store, err := ingest.Open(dir, ingest.Options{Fsync: ingest.FsyncNever, Bootstrap: build})
			if err != nil {
				return fail(err)
			}
			lg.store = store
			srv = federation.NewSourceServerWithGrid(src.Name, store.Index())
			srv.EnableIngest(store)
			lg.IngestSource = src.Name
		} else {
			idx, _ := build()
			srv = federation.NewSourceServerWithGrid(src.Name, idx)
		}
		peer := &transport.InProc{
			Name: src.Name, Handler: srv.Handler(), Metrics: center.Metrics,
		}
		if _, err := center.RegisterRemote(context.Background(), peer); err != nil {
			return fail(fmt.Errorf("load: register %s: %w", src.Name, err))
		}
	}

	gw := gateway.NewWithOptions(center, gateway.Options{Admission: opts.Admission})
	if lg.store != nil {
		lg.store.Register(gw.Registry())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	lg.URL = "http://" + ln.Addr().String()
	lg.srv = &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go lg.srv.Serve(ln)
	return lg, nil
}

// Close stops the HTTP server and releases the durable store and its temp
// directory. Safe on a partially constructed gateway.
func (lg *LocalGateway) Close() error {
	var errs []error
	if lg.srv != nil {
		errs = append(errs, lg.srv.Close())
	}
	if lg.store != nil {
		errs = append(errs, lg.store.Close())
	}
	if lg.tempDir != "" {
		errs = append(errs, os.RemoveAll(lg.tempDir))
	}
	return errors.Join(errs...)
}

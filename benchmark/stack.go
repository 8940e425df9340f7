package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dits/internal/cache"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/obs"
	"dits/internal/transport"
	"dits/internal/workload"
)

// worldGrid is the federation's shared grid: the whole globe at θ=12, the
// bounds every ditsgate/ditsserve example in the repo uses.
func worldGrid() geo.Grid {
	return geo.NewGrid(gridTheta, geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90})
}

// corpus is the raw data of the five sources. It is the benchmark's input,
// so generating it is not part of setup_s; gridding and indexing it is.
type corpus struct {
	grid    geo.Grid
	sources []*dataset.Source
}

func newCorpus(scale float64) *corpus {
	return &corpus{grid: worldGrid(), sources: workload.GenerateAll(scale, dataSeed)}
}

// sourceHandle is one source as the stack serves it.
type sourceHandle struct {
	name  string
	nodes []*dataset.Node // the datasets the source started with
	idx   *dits.Local     // nil when the source is behind a store
	store *ingest.Store
	srv   *federation.SourceServer
}

// index returns the source's live index. A store-backed source may swap
// it at a snapshot, so callers use it once and do not keep it.
func (h *sourceHandle) index() *dits.Local {
	if h.store != nil {
		return h.store.Index()
	}
	return h.idx
}

// stack is the running system under test: gateway HTTP listener, center or
// cluster, pooled TCP links, source servers. Every tier talks to the next
// over loopback TCP exactly as the shipped binaries wire it; the only
// additions are the pass-through wrappers at the public seams.
type stack struct {
	spec    workloadSpec
	grid    geo.Grid
	rec     *recorder
	url     string
	gw      *gateway.Gateway
	center  *federation.Center   // single-center stacks
	cluster *federation.Cluster  // cluster stacks
	centers []*federation.Center // every center that owns a cache and source links
	links   []*transport.Metrics // one per inter-tier link group
	sources []*sourceHandle
	buildNs int64 // time inside dits.Build

	mu      sync.Mutex // guards pools: cluster centers dial from handler goroutines
	pools   []*transport.Pool
	dir     string
	closers []func() error
}

// newStack grids and indexes the corpus and wires the tiers together.
// dir is a private state directory for the mutable sources' stores.
func newStack(spec workloadSpec, cp *corpus, rec *recorder, dir string) (st *stack, err error) {
	st = &stack{spec: spec, grid: cp.grid, rec: rec, dir: dir}
	defer func() {
		if err != nil {
			st.Close()
			st = nil
		}
	}()
	addrs := make(map[string]string) // source name -> listen address
	names := make(map[string]string) // listen address -> source name
	for _, src := range cp.sources {
		h, err := st.startSource(src)
		if err != nil {
			return st, err
		}
		ts, err := transport.ServeWith("127.0.0.1:0",
			tracedHandler(h.srv.Handler(), rec, kindServe, h.name),
			transport.ServeConfig{Recorder: obs.NewRecorder(obs.RecorderOptions{})})
		if err != nil {
			return st, fmt.Errorf("serve %s: %w", h.name, err)
		}
		st.closers = append(st.closers, ts.Close)
		addrs[h.name], names[ts.Addr()] = ts.Addr(), h.name
	}
	ctx := context.Background()
	if spec.cluster {
		err = st.wireCluster(ctx, addrs, names)
	} else {
		err = st.wireCenter(ctx, addrs)
	}
	if err != nil {
		return st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	hs := &http.Server{Handler: st.gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln) // returns when hs.Close runs; its error is ErrServerClosed
	st.closers = append(st.closers, hs.Close)
	st.url = "http://" + ln.Addr().String()
	return st, nil
}

// startSource grids one source, builds its DITS-L (through an ingest.Store
// when the workload mutates it) and wraps it in a SourceServer.
func (st *stack) startSource(src *dataset.Source) (*sourceHandle, error) {
	h := &sourceHandle{name: src.Name, nodes: src.Nodes(st.grid)}
	build := func() (*dits.Local, error) {
		t := time.Now()
		idx := dits.Build(st.grid, h.nodes, leafCap)
		st.buildNs += int64(time.Since(t))
		return idx, nil
	}
	mutable := false
	for _, name := range st.spec.mutable {
		mutable = mutable || name == src.Name
	}
	if mutable {
		store, err := ingest.Open(filepath.Join(st.dir, "store-"+src.Name), ingest.Options{
			Fsync: ingest.FsyncNever, SnapshotEvery: snapEvery, Bootstrap: build,
		})
		if err != nil {
			return nil, fmt.Errorf("open store %s: %w", src.Name, err)
		}
		st.closers = append(st.closers, store.Close)
		h.store = store
		h.srv = federation.NewSourceServerWithGrid(src.Name, store.Index())
		h.srv.EnableIngest(store)
	} else {
		h.idx, _ = build()
		h.srv = federation.NewSourceServerWithGrid(src.Name, h.idx)
	}
	st.sources = append(st.sources, h)
	return h, nil
}

// dial opens the pooled TCP link to one peer and wraps it at the seam.
func (st *stack) dial(name, addr string, met *transport.Metrics, kind spanKind) transport.Peer {
	pool := transport.DialPool(name, addr, poolSize, met)
	st.mu.Lock()
	st.pools = append(st.pools, pool)
	st.mu.Unlock()
	return &tracedPeer{inner: pool, rec: st.rec, kind: kind, name: name}
}

func newCenter(grid geo.Grid) *federation.Center {
	c := federation.NewCenter(grid, federation.DefaultOptions())
	c.SetCache(cache.New(cacheSize))
	return c
}

// wireCenter is ditsgate -remote: one center dialing every source.
func (st *stack) wireCenter(ctx context.Context, addrs map[string]string) error {
	st.center = newCenter(st.grid)
	st.centers = []*federation.Center{st.center}
	st.links = []*transport.Metrics{st.center.Metrics}
	for _, h := range st.sources {
		peer := st.dial(h.name, addrs[h.name], st.center.Metrics, kindRPC)
		if _, err := st.center.RegisterRemote(ctx, peer); err != nil {
			return fmt.Errorf("register %s: %w", h.name, err)
		}
	}
	st.gw = gateway.NewWithOptions(st.center, gateway.Options{})
	return nil
}

// wireCluster is ditsgate -cluster over three ditscenter processes' worth
// of CenterServers, each behind its own TCP listener.
func (st *stack) wireCluster(ctx context.Context, addrs, names map[string]string) error {
	hop := &transport.Metrics{}
	st.links = []*transport.Metrics{hop}
	peers := make(map[string]transport.Peer, numCenters)
	for i := 0; i < numCenters; i++ {
		name := fmt.Sprintf("center-%d", i)
		c := newCenter(st.grid)
		cs, err := federation.NewCenterServer(name, c, federation.CenterServerOptions{
			Dial: func(addr string) (transport.Peer, error) {
				return st.dial(names[addr], addr, c.Metrics, kindRPC), nil
			},
		})
		if err != nil {
			return err
		}
		st.closers = append(st.closers, cs.Close)
		ts, err := transport.ServeWith("127.0.0.1:0",
			tracedHandler(cs.Handler(), st.rec, kindCenter, name),
			transport.ServeConfig{Recorder: obs.NewRecorder(obs.RecorderOptions{})})
		if err != nil {
			return fmt.Errorf("serve %s: %w", name, err)
		}
		st.closers = append(st.closers, ts.Close)
		st.centers = append(st.centers, c)
		st.links = append(st.links, c.Metrics)
		peers[name] = st.dial(name, ts.Addr(), hop, kindHop)
	}
	st.cluster = federation.NewCluster(st.grid, peers)
	st.cluster.Metrics = hop
	for _, h := range st.sources {
		if err := st.cluster.AddSource(ctx, federation.ClusterSource{Name: h.name, Addr: addrs[h.name]}); err != nil {
			return fmt.Errorf("shard %s: %w", h.name, err)
		}
	}
	st.gw = gateway.NewCluster(st.cluster, gateway.Options{})
	return nil
}

// Close tears the stack down front to back and removes its state
// directory. Safe on a partially built stack, and a second call does nothing.
func (st *stack) Close() error {
	var errs []error
	// The HTTP listener was appended last; close in reverse so no tier
	// outlives the one that calls into it.
	for i := len(st.closers) - 1; i >= 0; i-- {
		if err := st.closers[i](); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	st.closers = nil
	st.mu.Lock()
	for _, p := range st.pools {
		errs = append(errs, p.Close())
	}
	st.pools = nil
	st.mu.Unlock()
	if st.dir != "" {
		errs = append(errs, os.RemoveAll(st.dir))
		st.dir = ""
	}
	return errors.Join(errs...)
}

// commTotals sums messages and payload bytes over every inter-tier link.
func (st *stack) commTotals() (msgs, bytes int64) {
	for _, m := range st.links {
		msgs += m.Messages()
		bytes += m.Bytes()
	}
	return msgs, bytes
}

// cacheStats sums the result caches of every center.
func (st *stack) cacheStats() (cs cache.Stats, invalidations int64) {
	for _, c := range st.centers {
		s := c.Cache().Stats()
		cs.Hits += s.Hits
		cs.Misses += s.Misses
		invalidations += c.CacheInvalidations()
	}
	return cs, invalidations
}

// poolDials sums the connections every pool ever dialed.
func (st *stack) poolDials() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var n int64
	for _, p := range st.pools {
		n += p.Stats().Dials
	}
	return n
}

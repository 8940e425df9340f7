package federation

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/obs"
	"dits/internal/transport"
)

// Cluster is the gateway-side federation plane over N sharded centers:
// sources are assigned to centers by consistent hash (ShardMap), and each
// center holds its shard's source connections. The gateway runs the one
// query engine (view, a Center over every source's root summary): every
// query class and every mutation is pruned, clipped, policed and merged
// there exactly as one center over all the sources would, and each
// fan-out reaches the sources through their owners' relays
// (cluster.forward) — so every answer is byte-identical to a single
// center's.
//
// The plane is leaderless. The gateway health-checks centers (in-band on
// every transport failure, plus the optional Probe loop); when a center
// dies, the ring is rebuilt over the survivors and only the dead center's
// shard re-homes (consistent hashing's minimal movement), each moved
// source re-registered at its new owner before queries resume. Reads
// never fail over past a live center that answered with an error — a
// RemoteError means the center is healthy and the query genuinely failed.
//
// Concurrency: relayed fan-outs run under a read lock; failover (mark
// down, rebuild ring, re-home the shard) runs under the write lock, so no
// fan-out can observe a half-re-homed topology — every call goes to an
// owner of a ring whose shards partition the full roster.
type Cluster struct {
	Grid geo.Grid
	// Metrics observes the gateway→center exchanges (shared by the center
	// peers' pools).
	Metrics *transport.Metrics

	// view is the gateway's DITS-G and query engine, kept exactly as a
	// Center keeps its members — epoch snapshots, version-ordered mutation
	// notes — by being one: every homed source is registered in it without
	// a connection, and it reaches them through relay. Lock order: mu, then
	// the view's own.
	view *Center

	mu      sync.RWMutex
	centers []*clusterCenter
	sources map[string]ClusterSource
	owner   map[string]*clusterCenter
	ring    *ShardMap

	gen       atomic.Uint64 // bumps when a completed failover publishes a new topology
	failovers atomic.Int64  // centers marked down
	rehomed   atomic.Int64  // sources re-registered by failovers
}

// ClusterSource is one roster entry: the source's stable name, its
// primary's dial address, and its replicas' addresses in failover order.
type ClusterSource struct {
	Name     string
	Addr     string
	Replicas []string
}

// clusterCenter is one center endpoint and its health bit. healthy flips
// false exactly once (no automatic readmission; see docs/OPERATIONS.md for
// replacing a dead center).
type clusterCenter struct {
	name    string
	peer    transport.Peer
	healthy atomic.Bool
}

// ErrNoCenters reports a cluster whose every center is marked down.
var ErrNoCenters = errors.New("federation: no healthy centers")

const (
	// rehomeTimeout bounds each re-registration call during a failover, so
	// one hung survivor cannot wedge the whole plane behind the write lock.
	rehomeTimeout = 10 * time.Second
	// sessionCloseTimeout bounds the best-effort coverage.close fan-out at
	// the end of a CJSP, which runs after the answer is computed.
	sessionCloseTimeout = 2 * time.Second
)

// NewCluster builds the plane over named center peers (wrap TCP in
// transport.Pool). The roster starts empty; AddSource registers sources.
func NewCluster(grid geo.Grid, centers map[string]transport.Peer) *Cluster {
	cl := &Cluster{
		Grid:    grid,
		Metrics: &transport.Metrics{},
		view:    NewCenter(grid, DefaultOptions()),
		sources: make(map[string]ClusterSource),
		owner:   make(map[string]*clusterCenter),
	}
	cl.view.relay = cl.relay
	names := slices.Sorted(maps.Keys(centers))
	for _, name := range names {
		c := &clusterCenter{name: name, peer: centers[name]}
		c.healthy.Store(true)
		cl.centers = append(cl.centers, c)
	}
	cl.ring = NewShardMap(names)
	return cl
}

// SetOptions configures the view's distribution strategies, failure policy
// and batch pool, as Options configure a single center. Call it before the
// cluster serves.
func (cl *Cluster) SetOptions(opts Options) { cl.view.Options = opts }

// SetCache installs the view's result cache (nil disables it).
func (cl *Cluster) SetCache(rc *cache.Cache) { cl.view.SetCache(rc) }

// Cache returns the view's result cache (nil when disabled).
func (cl *Cluster) Cache() *cache.Cache { return cl.view.Cache() }

// AddSource adds a roster entry and registers it at its ring owner. On a
// transport failure the owner is failed over and registration retries at
// the new owner. A source gridded other than cl.Grid is refused and left
// out of the roster: its cell IDs would name other cells.
func (cl *Cluster) AddSource(ctx context.Context, src ClusterSource) error {
	if src.Name == "" || src.Addr == "" {
		return fmt.Errorf("federation: cluster source needs a name and address")
	}
	for range cl.centers {
		cl.mu.Lock()
		prev, listed := cl.sources[src.Name]
		cl.sources[src.Name] = src
		owner := cl.centerNamed(cl.ring.Assign(src.Name))
		if owner == nil {
			cl.mu.Unlock()
			return ErrNoCenters
		}
		summary, err := registerAt(ctx, owner, src)
		if err == nil {
			if err = checkGrid(summary, cl.Grid); err == nil {
				cl.owner[src.Name] = owner
				cl.view.Register(summary, nil)
			} else if listed {
				cl.sources[src.Name] = prev
			} else {
				delete(cl.sources, src.Name)
			}
			cl.mu.Unlock()
			return err
		}
		cl.mu.Unlock()
		if !isTransportFailure(ctx, err) {
			return err
		}
		cl.failover(owner)
	}
	return ErrNoCenters
}

// registerAt performs one cluster.register exchange and returns the
// source's root summary as the center fetched it.
func registerAt(ctx context.Context, c *clusterCenter, src ClusterSource) (dits.SourceSummary, error) {
	req := ClusterRegisterRequest{Name: src.Name, Addr: src.Addr, Replicas: src.Replicas}
	var summary dits.SourceSummary
	if err := c.peer.Call(ctx, MethodClusterRegister, &req, &summary); err != nil {
		return summary, fmt.Errorf("federation: register %s at center %s: %w", src.Name, c.name, err)
	}
	return summary, nil
}

// homed records a re-registration: the source's new owner, and its summary
// if the view dropped it while it was un-homed — otherwise the view keeps
// what it has, as a re-homed source did not restart. Caller holds mu.
func (cl *Cluster) homed(name string, c *clusterCenter, summary dits.SourceSummary) {
	cl.owner[name] = c
	cl.rehomed.Add(1)
	if _, ok := cl.view.epoch.Load().members[name]; !ok {
		cl.view.Register(summary, nil)
	}
}

// centerNamed resolves a healthy center by name; the caller holds a lock.
func (cl *Cluster) centerNamed(name string) *clusterCenter {
	for _, c := range cl.centers {
		if c.name == name && c.healthy.Load() {
			return c
		}
	}
	return nil
}

// healthySnapshot returns the healthy centers; the caller holds a lock.
func (cl *Cluster) healthySnapshot() []*clusterCenter {
	out := make([]*clusterCenter, 0, len(cl.centers))
	for _, c := range cl.centers {
		if c.healthy.Load() {
			out = append(out, c)
		}
	}
	return out
}

// isTransportFailure classifies a center call error: true for dial and
// connection failures (the center may be dead — fail over), false for
// RemoteErrors (the center is alive; the query genuinely failed) and for a
// context the CALLER cancelled.
func isTransportFailure(ctx context.Context, err error) bool {
	var re *transport.RemoteError
	return err != nil && !errors.As(err, &re) && ctx.Err() == nil
}

// failover marks a center down and re-homes its shard onto the survivors.
// Safe to call for an already-down center (no-op). Concurrent callers
// serialize behind the write lock, so by the time any of them returns the
// topology is fully re-homed and queries can retry.
func (cl *Cluster) failover(dead *clusterCenter) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if !dead.healthy.Load() {
		return // another caller already re-homed this center's shard
	}
	dead.healthy.Store(false)
	cl.failovers.Add(1)
	cl.rehomeLocked()
}

// rehomeLocked rebuilds the ring over the healthy centers and re-registers
// every source whose owner changed or died. A survivor that fails during
// re-homing is itself marked down and the rebuild restarts (bounded by the
// center count). The caller holds the write lock.
func (cl *Cluster) rehomeLocked() {
rebuild:
	for {
		healthy := cl.healthySnapshot()
		names := make([]string, len(healthy))
		for i, c := range healthy {
			names[i] = c.name
		}
		cl.ring = NewShardMap(names)
		if len(healthy) == 0 {
			cl.gen.Add(1)
			return
		}
		sources := slices.Sorted(maps.Keys(cl.sources))
		for _, name := range sources {
			cur := cl.owner[name]
			next := cl.centerNamed(cl.ring.Assign(name))
			if cur == next && cur != nil && cur.healthy.Load() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), rehomeTimeout)
			summary, err := registerAt(ctx, next, cl.sources[name])
			cancel()
			if err != nil && isTransportFailure(context.Background(), err) {
				next.healthy.Store(false)
				cl.failovers.Add(1)
				continue rebuild
			}
			// A RemoteError (the source itself is unreachable from the new
			// owner, say) leaves the source temporarily un-homed and out of
			// the view; the next failover or mutation reconciles it.
			// Queries against the remaining shards stay correct — they
			// just miss this source, exactly like SkipFailed degradation
			// would. So does a source that came back on another grid.
			if err == nil {
				err = checkGrid(summary, cl.Grid)
			}
			if err == nil {
				cl.homed(name, next, summary)
			} else {
				delete(cl.owner, name)
				cl.view.Unregister(name)
			}
		}
		cl.gen.Add(1)
		return
	}
}

// Probe health-checks every healthy center once (cluster.info) and fails
// over any that are transport-unreachable. It returns the number of
// centers marked down. The gateway runs this periodically so a center that
// dies between queries is detected before the next request pays for it.
// Each answer's (summary, data version) pairs are folded into the view like
// mutation acknowledgements, so an extent whose acknowledgement was lost is
// stale for one probe interval at most — two when its owner failed over in
// between, as the new owner is probed on the next pass (it seeds the
// source's version at adoption, so its report is not dropped as stale).
func (cl *Cluster) Probe(ctx context.Context) int {
	cl.mu.RLock()
	targets := cl.healthySnapshot()
	cl.mu.RUnlock()
	downed := 0
	for _, c := range targets {
		ep := cl.view.epoch.Load()
		var info ClusterInfoResponse
		err := c.peer.Call(ctx, MethodClusterInfo, nil, &info)
		if isTransportFailure(ctx, err) {
			cl.failover(c)
			downed++
		}
		for _, s := range info.Shard {
			cl.view.noteMutation(ep, s.Summary.Name, MutateResponse{Version: s.Version, Summary: s.Summary})
		}
	}
	return downed
}

// scatter fans one exchange out to every healthy center: transport-failed
// centers are failed over and the exchange retried against the new topology
// (bounded by the center count); a RemoteError aborts with that error. fn
// runs once per center, concurrently, under the read lock — so ownership
// is the retried topology's after a failover.
func (cl *Cluster) scatter(ctx context.Context, fn func(ctx context.Context, c *clusterCenter) error) error {
	for range len(cl.centers) + 1 {
		cl.mu.RLock()
		targets := cl.healthySnapshot()
		if len(targets) == 0 {
			cl.mu.RUnlock()
			return ErrNoCenters
		}
		_, errs := fanOut(targets, func(c *clusterCenter) (struct{}, error) { return struct{}{}, fn(ctx, c) })
		cl.mu.RUnlock()
		var dead []*clusterCenter
		for i, err := range errs {
			if err == nil {
				continue
			}
			if !isTransportFailure(ctx, err) {
				return err
			}
			dead = append(dead, targets[i])
		}
		if len(dead) == 0 {
			return nil
		}
		for _, c := range dead {
			cl.failoverTraced(ctx, c)
		}
	}
	return ErrNoCenters
}

// failoverTraced runs failover under a failover.rehome span, so a traced
// query that trips over a dead center shows the failed RPC, the re-home,
// and the retried RPC as siblings in one span tree.
func (cl *Cluster) failoverTraced(ctx context.Context, dead *clusterCenter) {
	_, sp := obs.StartSpan(ctx, "failover.rehome")
	sp.SetSource(dead.name)
	cl.failover(dead)
	sp.End()
}

// OverlapSearch answers the federated OJSP: the view prunes with DITS-G,
// clips the query per candidate source and merges the top-k exactly as one
// center over all the sources does, and relay carries the fan-out through
// the candidates' owners.
func (cl *Cluster) OverlapSearch(ctx context.Context, queryCells cellset.Set, k int) ([]SourceResult, error) {
	return cl.view.OverlapSearch(ctx, queryCells, k)
}

// OverlapSearchBatch answers a batch the same way: one search.batch per
// candidate source, relayed in one cluster.forward per owner center. Entry
// i aligns with queries[i] and equals what OverlapSearch(queries[i])
// returns.
func (cl *Cluster) OverlapSearchBatch(ctx context.Context, queries []BatchQuery) ([][]SourceResult, error) {
	return cl.view.OverlapSearchBatch(ctx, queries)
}

// CoverageSearch answers the federated CJSP: the view runs the session
// engine over all the sources, message for message what a single center
// exchanges with them, and relay carries each fan-out through the owners.
// Sessions live at the sources: a center failing over mid-query loses none.
func (cl *Cluster) CoverageSearch(ctx context.Context, queryCells cellset.Set, delta float64, k int) (CoverageResult, error) {
	return cl.view.CoverageSearch(ctx, queryCells, delta, k)
}

// relay performs the view's member calls (Center.relay) through the
// centers: one scatter in which each center is sent ONE cluster.forward
// carrying the calls of the sources it owns. A center whose transport fails
// is failed over by scatter and the retry forwards only the calls still
// unanswered, to their new owners; any other failure is the call's own.
func (cl *Cluster) relay(ctx context.Context, calls []memberCall) []error {
	errs := make([]error, len(calls))
	done := make([]bool, len(calls))
	err := cl.scatter(ctx, func(ctx context.Context, c *clusterCenter) error {
		var idx []int
		for i := range calls {
			// Ownership first: only its owner's goroutine touches done[i].
			if cl.owner[calls[i].m.summary.Name] == c && !done[i] {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return nil
		}
		return forward(ctx, c, calls, idx, errs, done)
	})
	if err == nil {
		err = ErrNoCenters // the source lost its home mid-query
	}
	for i := range calls {
		if !done[i] {
			errs[i] = err
		}
	}
	return errs
}

// forward sends the calls at idx to one center in a single cluster.forward
// and distributes the replies: responses decode into the calls, per-source
// failures land in errs, and either way the call is done. The returned
// error is the center's own.
func forward(ctx context.Context, c *clusterCenter, calls []memberCall, idx []int, errs []error, done []bool) error {
	req := ClusterForwardRequest{Calls: make([]ForwardCall, len(idx))}
	for j, i := range idx {
		body, _ := BinaryCodec.Append(nil, calls[i].req) // native encodings cannot fail
		req.Calls[j] = ForwardCall{Source: calls[i].m.summary.Name, Method: calls[i].method, Body: body}
	}
	var resp ClusterForwardResponse
	if err := c.peer.Call(ctx, MethodClusterForward, &req, &resp); err != nil {
		return fmt.Errorf("federation: cluster forward at %s: %w", c.name, err)
	}
	if len(resp.Replies) != len(idx) {
		return fmt.Errorf("federation: cluster forward at %s: %d replies for %d calls", c.name, len(resp.Replies), len(idx))
	}
	for j, i := range idx {
		done[i] = true
		switch r := resp.Replies[j]; {
		case r.Transport:
			errs[i] = errors.New(r.Err)
		case r.Err != "":
			errs[i] = &transport.RemoteError{Source: req.Calls[j].Source, Msg: r.Err}
		case calls[i].resp != nil:
			errs[i] = BinaryCodec.Decode(r.Body, calls[i].resp)
		}
	}
	return nil
}

// PutDataset durably upserts one dataset: the view sends dataset.put
// through the source's owner and folds the acknowledgement into its DITS-G
// before returning, so the caller's next query prunes on the extent it
// just wrote.
func (cl *Cluster) PutDataset(ctx context.Context, source string, id int, name string, cells cellset.Set) (MutateResult, error) {
	if err := cl.home(source); err != nil {
		return MutateResult{}, err
	}
	return cl.view.PutDataset(ctx, source, id, name, cells)
}

// DeleteDataset durably removes one dataset, routed like PutDataset.
func (cl *Cluster) DeleteDataset(ctx context.Context, source string, id int) (MutateResult, error) {
	if err := cl.home(source); err != nil {
		return MutateResult{}, err
	}
	return cl.view.DeleteDataset(ctx, source, id)
}

// home readies a mutation's source: off the roster it is unknown, and a
// roster source left without a healthy owner (a failover could not place
// it) re-runs the re-homing pass first.
func (cl *Cluster) home(source string) error {
	cl.mu.RLock()
	_, known := cl.sources[source]
	owner := cl.owner[source]
	cl.mu.RUnlock()
	switch {
	case !known:
		return fmt.Errorf("%w: %q", ErrUnknownSource, source)
	case owner != nil && owner.healthy.Load(), cl.reconcileOwner(source):
		return nil
	}
	return ErrNoCenters
}

// reconcileOwner re-runs the re-homing pass for a source left without an
// owner; reports whether the source now has a healthy one.
func (cl *Cluster) reconcileOwner(source string) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if o := cl.owner[source]; o == nil || !o.healthy.Load() {
		cl.rehomeLocked()
	}
	o := cl.owner[source]
	return o != nil && o.healthy.Load()
}

// NumSources returns the roster size.
func (cl *Cluster) NumSources() int {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return len(cl.sources)
}

// Generation returns the topology generation: it bumps whenever a
// completed failover publishes a re-homed ring.
func (cl *Cluster) Generation() uint64 { return cl.gen.Load() }

// CacheInvalidations reports the view's cache-invalidation events: one per
// acknowledged mutation and one per membership change.
func (cl *Cluster) CacheInvalidations() int64 { return cl.view.CacheInvalidations() }

// SourceVersions returns the cluster's acked data-version vector: the
// highest version any mutation acknowledgement (or probe) reported per
// source.
func (cl *Cluster) SourceVersions() map[string]uint64 { return cl.view.SourceVersions() }

// ClusterStats is the plane's observability snapshot.
type ClusterStats struct {
	Centers      int               `json:"centers"`
	Healthy      int               `json:"healthy"`
	Generation   uint64            `json:"generation"`
	Failovers    int64             `json:"failovers"`
	Rehomed      int64             `json:"rehomed"`
	SourceOwners map[string]string `json:"sourceOwners,omitempty"`
}

// Stats snapshots the cluster plane.
func (cl *Cluster) Stats() ClusterStats {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	st := ClusterStats{
		Centers:      len(cl.centers),
		Healthy:      len(cl.healthySnapshot()),
		Generation:   cl.gen.Load(),
		Failovers:    cl.failovers.Load(),
		Rehomed:      cl.rehomed.Load(),
		SourceOwners: make(map[string]string, len(cl.owner)),
	}
	for name, c := range cl.owner {
		st.SourceOwners[name] = c.name
	}
	return st
}

// Close releases every center peer.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var errs []error
	for _, c := range cl.centers {
		errs = append(errs, c.peer.Close())
	}
	return errors.Join(errs...)
}

// Shards returns the current assignment of roster sources to healthy
// centers — the audit surface the differential tests and OPERATIONS
// runbooks read.
func (cl *Cluster) Shards() map[string][]string {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return cl.ring.Shards(slices.Sorted(maps.Keys(cl.sources)))
}

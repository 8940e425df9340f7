package federation

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/obs"
	"dits/internal/search/coverage"
	"dits/internal/transport"
)

// Options tune the data center's query distribution strategies (§VI-A)
// and its failure semantics. Benchmarks switch the strategies off to model
// the baselines, which broadcast the full query to every source.
type Options struct {
	// GlobalFilter prunes non-candidate sources through DITS-G (first
	// strategy: fewer communications).
	GlobalFilter bool
	// ClipQuery ships only the query cells intersecting each candidate
	// source's root MBR (second strategy: fewer bytes per communication).
	ClipQuery bool
	// Sessions runs CJSP over the session protocol: per-query sessions at
	// each source, delta-shipped rounds, and two-phase candidate offers
	// where only the round's winner ships its cells. Off, every round
	// ships the whole merged state to every candidate and every candidate
	// ships its cells back (the stateless protocol: no command runs it;
	// it is the oracle the tests and the benchmark's answer check compare
	// the session protocol against).
	Sessions bool
	// OnSourceError picks the failure policy for mid-query peer errors:
	// FailFast (zero value) aborts the query, SkipFailed answers from the
	// surviving sources and records the failure in Metrics.
	OnSourceError FailurePolicy
}

// DefaultOptions enables both distribution strategies and the session
// protocol, with fail-fast error semantics.
func DefaultOptions() Options {
	return Options{GlobalFilter: true, ClipQuery: true, Sessions: true}
}

// member is one registered source: its summary, its connection, and the
// epoch generation of its registration, which tells its incarnations apart.
type member struct {
	summary dits.SourceSummary
	peer    transport.Peer
	gen     uint64
	writes  *writeLog // shared by every epoch's copy of this incarnation
}

// writeLogCap bounds each source's write log: an OJSP answer cached more
// writes ago than this at its source is asked again.
const writeLogCap = 256

// write is one mutation the center applied at a source: the data version
// it produced, the dataset it named and, for a put, the request's cells
// (nil for a delete).
type write struct {
	version uint64
	id      int
	cells   cellset.Set
}

// writeLog is one source incarnation's last writeLogCap writes through
// this center, in note order. Registration starts a fresh log, so the
// writes of a previous incarnation never vouch for the current one's.
type writeLog struct {
	mu   sync.Mutex
	recs []write
}

// add logs w, dropping the oldest record when the log is full.
func (l *writeLog) add(w write) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == writeLogCap {
		l.recs = slices.Delete(l.recs, 0, 1)
	}
	l.recs = append(l.recs, w)
}

// keeps reports whether items, a source's top-k for the query q computed
// at data version from, is still its answer at version to: every version
// in between is logged, no logged write names a dataset in items, and no
// logged put ranks into them (ranksIn). Each applied write has a version of
// its own and is logged once, so counting the records in the gap tells
// whether it is covered.
func (l *writeLog) keeps(from, to uint64, q cellset.Set, k int, items []OverlapItem) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := uint64(0)
	for _, w := range l.recs {
		if w.version <= from || w.version > to {
			continue
		}
		if slices.ContainsFunc(items, func(it OverlapItem) bool { return it.ID == w.id }) ||
			w.cells != nil && ranksIn(w.cells, w.id, q, k, items) {
			return false
		}
		n++
	}
	return n == to-from
}

// ranksIn reports whether a dataset with the given cells and ID could
// enter items, a top-k best-first under (overlap descending, ID
// ascending). Its overlap is taken on the query's full cells, a superset of
// the clip the source answered, so the test errs only towards asking.
func ranksIn(cells cellset.Set, id int, q cellset.Set, k int, items []OverlapItem) bool {
	n := cells.IntersectCount(q)
	if n == 0 || len(items) < k {
		return n > 0
	}
	last := items[len(items)-1]
	return n > last.Overlap || n == last.Overlap && id < last.ID
}

// epochSnap is one immutable membership epoch: the member set, the DITS-G
// built over it, and the generation number that versions both. A query
// loads the pointer once and works against that snapshot for its whole
// lifetime — rounds of one CJSP see one consistent federation even while
// sources register and unregister concurrently.
type epochSnap struct {
	gen     uint64
	members map[string]*member
	ordered []*member // name-sorted, for deterministic broadcast order
	global  *dits.Global
}

// Center is the data center: it maintains DITS-G over the source summaries
// and coordinates multi-source OJSP and CJSP.
//
// A Center is safe for concurrent use: any number of goroutines — one per
// gateway request, say — may run OverlapSearch and CoverageSearch while
// others register or unregister sources. Membership lives in an immutable
// epoch snapshot swapped atomically under mu; queries pin the snapshot
// once and never touch the lock again. Peers themselves must tolerate the
// resulting concurrent Calls: wrap TCP connections in a transport.Pool
// (transport.InProc is already safe when its handler is).
type Center struct {
	Grid    geo.Grid // the federation's shared grid
	Options Options
	Metrics *transport.Metrics

	epoch atomic.Pointer[epochSnap]

	// versions is the center's view of each source's data version,
	// updated from every mutation response. It is an immutable map behind
	// an atomic pointer. A CJSP answer's key folds in every member's
	// version, so a mutation re-keys it (the stale entry ages out of the
	// LRU unreferenced); an OJSP entry holds the version of its one source,
	// and a hit behind the current version replays that source's write log
	// (writeLog.keeps) before the entry is used.
	versions atomic.Pointer[map[string]uint64]
	// invalidations counts cache-invalidation events: one per applied
	// mutation and one per membership epoch change.
	invalidations atomic.Int64

	mu    sync.Mutex // serializes membership changes
	cache atomic.Pointer[cache.Cache]

	// closing lists, per source name, the sessions ended CJSPs left open
	// there (closeLater), for the next coverage.round to carry.
	closeMu sync.Mutex
	closing map[string][]uint64

	// relay, when set, performs every member call (callMembers) in place of
	// the members' own peers: a cluster gateway's view registers its
	// sources without connections and reaches them through their owner
	// centers (Cluster.relay).
	relay func(ctx context.Context, calls []memberCall) []error
}

// ErrUnknownSource reports a mutation routed to a source name that is not
// registered in the current membership epoch.
var ErrUnknownSource = errors.New("federation: unknown source")

// sessionIDs issues center-process-unique session identifiers. The base is
// random so sessions from independent centers sharing a source collide
// with negligible probability.
var sessionIDs atomic.Uint64

func init() { sessionIDs.Store(rand.Uint64()) }

// nextSessionID returns a fresh non-zero session ID (zero means "no
// session" on the wire).
func nextSessionID() uint64 {
	for {
		if id := sessionIDs.Add(1); id != 0 {
			return id
		}
	}
}

// NewCenter creates a data center over the shared grid.
func NewCenter(g geo.Grid, opts Options) *Center {
	c := &Center{
		Grid:    g,
		Options: opts,
		Metrics: &transport.Metrics{},
		closing: map[string][]uint64{},
	}
	c.epoch.Store(&epochSnap{
		members: map[string]*member{},
		global:  dits.BuildGlobal(nil, dits.DefaultLeafCapacity),
	})
	c.versions.Store(&map[string]uint64{})
	return c
}

// SetCache installs a result cache. Pass nil to disable. An OJSP entry is
// one source's local top-k for one query, so a mutation or re-registration
// at one source leaves the other sources' answers cached, and a write at
// that source that cannot change its top-k leaves its answer cached too
// (writeLog.keeps); a CJSP entry is a whole answer. See answerKey for what
// each key names.
func (c *Center) SetCache(rc *cache.Cache) { c.cache.Store(rc) }

// Cache returns the installed result cache (nil when disabled). Every key
// names the registration generation and extent of each source its answer
// was computed from, so no membership change has to clear the cache: an
// entry no current query can name ages out of the LRU.
func (c *Center) Cache() *cache.Cache { return c.cache.Load() }

// Generation returns the current membership epoch's generation number. It
// increments on every Register/Unregister.
func (c *Center) Generation() uint64 { return c.epoch.Load().gen }

// Register adds a source: the source uploads its root summary and the
// center swaps in a new membership epoch whose DITS-G is built over the
// new member set's summaries (§V-B).
func (c *Center) Register(summary dits.SourceSummary, peer transport.Peer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.epoch.Load()
	members := make(map[string]*member, len(old.members)+1)
	for k, v := range old.members {
		members[k] = v
	}
	// Registration is an authoritative reset of the source's state: drop
	// its version entry so a rebuilt source whose data version restarted
	// from zero is not shadowed by the previous incarnation's counter, and
	// stamp the member with the new generation and an empty write log, so
	// in-flight mutation responses from the previous incarnation are dropped
	// rather than re-noted and no query names the previous incarnation's
	// cache entries.
	members[summary.Name] = &member{summary: summary, peer: peer, gen: old.gen + 1, writes: new(writeLog)}
	c.dropVersionLocked(summary.Name)
	c.swapEpochLocked(old, members)
}

// dropVersionLocked removes a source from the version vector; the caller
// holds c.mu.
func (c *Center) dropVersionLocked(name string) {
	old := *c.versions.Load()
	if _, ok := old[name]; !ok {
		return
	}
	nv := make(map[string]uint64, len(old))
	maps.Copy(nv, old)
	delete(nv, name)
	c.versions.Store(&nv)
}

// RegisterRemote fetches the source's summary over the peer connection
// (MethodSummary) and registers it — how a data center bootstraps against
// already-running source servers. A source gridded on another grid than
// the center's is refused: its cell IDs would name other cells. A center
// without a grid (θ 0, the cluster relay roster) runs no query and takes
// any grid.
func (c *Center) RegisterRemote(ctx context.Context, peer transport.Peer) (dits.SourceSummary, error) {
	return c.registerRemoteOn(ctx, peer, c.Grid)
}

// registerRemoteOn is RegisterRemote refusing a source gridded other than
// grid, unless grid is the zero grid.
func (c *Center) registerRemoteOn(ctx context.Context, peer transport.Peer, grid geo.Grid) (dits.SourceSummary, error) {
	var summary dits.SourceSummary
	if err := peer.Call(ctx, MethodSummary, nil, &summary); err != nil {
		return dits.SourceSummary{}, fmt.Errorf("federation: fetch summary: %w", err)
	}
	if grid.Theta != 0 {
		if err := checkGrid(summary, grid); err != nil {
			return summary, err
		}
	}
	c.Register(summary, peer)
	return summary, nil
}

// checkGrid refuses a source summary gridded other than want.
func checkGrid(s dits.SourceSummary, want geo.Grid) error {
	if s.Grid != want {
		return fmt.Errorf("federation: source %s is gridded as %s, the federation as %s", s.Name, s.Grid, want)
	}
	return nil
}

// Unregister removes a source (its peer is not closed). In-flight queries
// pinned to the old epoch keep their consistent member set; new queries
// see the source gone.
func (c *Center) Unregister(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.epoch.Load()
	if _, ok := old.members[name]; !ok {
		return
	}
	members := make(map[string]*member, len(old.members))
	for k, v := range old.members {
		if k != name {
			members[k] = v
		}
	}
	c.dropVersionLocked(name)
	c.swapEpochLocked(old, members)
}

// swapEpochLocked publishes a new membership epoch whose DITS-G is built
// from the members' summaries in name order; the caller holds c.mu.
func (c *Center) swapEpochLocked(old *epochSnap, members map[string]*member) {
	ordered := make([]*member, 0, len(members))
	for _, m := range members {
		ordered = append(ordered, m)
	}
	slices.SortFunc(ordered, func(a, b *member) int {
		return cmp.Compare(a.summary.Name, b.summary.Name)
	})
	summaries := make([]dits.SourceSummary, len(ordered))
	for i, m := range ordered {
		summaries[i] = m.summary
	}
	c.epoch.Store(&epochSnap{
		gen:     old.gen + 1,
		members: members,
		ordered: ordered,
		global:  dits.BuildGlobal(summaries, dits.DefaultLeafCapacity),
	})
	c.invalidations.Add(1)
}

// NumSources returns the number of registered sources.
func (c *Center) NumSources() int { return len(c.epoch.Load().members) }

// SourceResult is a federated OJSP result: a dataset within one source.
type SourceResult struct {
	Source  string
	ID      int
	Name    string
	Overlap int
}

// boundsQueryNode converts cell-coordinate bounds into the raw-coordinate
// query summary used against DITS-G.
func (c *Center) boundsQueryNode(minX, minY, maxX, maxY uint32) dits.QueryNode {
	g := c.Grid
	raw := geo.Rect{
		MinX: g.Origin.X + float64(minX)*g.CellW,
		MinY: g.Origin.Y + float64(minY)*g.CellH,
		MaxX: g.Origin.X + float64(maxX+1)*g.CellW,
		MaxY: g.Origin.Y + float64(maxY+1)*g.CellH,
	}
	return dits.QueryNode{Rect: raw, O: raw.Center(), R: raw.Radius()}
}

// queryNode converts query cells into the raw-coordinate query summary.
func (c *Center) queryNode(cells cellset.Set) (dits.QueryNode, bool) {
	minX, minY, maxX, maxY, ok := cells.Bounds()
	if !ok {
		return dits.QueryNode{}, false
	}
	return c.boundsQueryNode(minX, minY, maxX, maxY), true
}

// candidates returns the sources of the pinned epoch the query must be
// sent to, in deterministic name order.
func (c *Center) candidates(ep *epochSnap, qn dits.QueryNode, deltaRaw float64) []*member {
	if !c.Options.GlobalFilter {
		return ep.ordered
	}
	var out []*member
	for _, s := range ep.global.CandidateSources(qn, deltaRaw) {
		if m, ok := ep.members[s.Name]; ok {
			out = append(out, m)
		}
	}
	slices.SortFunc(out, func(a, b *member) int {
		return cmp.Compare(a.summary.Name, b.summary.Name)
	})
	return out
}

// clipRegion returns the region whose cells are shipped to a source: its
// root MBR expanded by expandCells grid cells. ok is false when ClipQuery
// is off and the full set is shipped.
func (c *Center) clipRegion(m *member, expandCells float64) (r geo.Rect, ok bool) {
	if !c.Options.ClipQuery {
		return geo.Rect{}, false
	}
	return m.summary.Rect.Expand(expandCells * math.Max(c.Grid.CellW, c.Grid.CellH)), true
}

// clipFor returns the query cells shipped to a source: the full set, or
// its portion within the source's clipRegion.
func (c *Center) clipFor(m *member, cells cellset.Set, expandCells float64) cellset.Set {
	if r, ok := c.clipRegion(m, expandCells); ok {
		return cells.FilterRect(c.Grid, r)
	}
	return cells
}

// clipCompact is clipFor on the container form.
func (c *Center) clipCompact(m *member, cells *cellset.Compact, expandCells float64) *cellset.Compact {
	if r, ok := c.clipRegion(m, expandCells); ok {
		return cells.ClipRect(c.Grid, r)
	}
	return cells
}

// deltaRaw converts a connectivity threshold in cell units to a safe raw
// distance for global-index pruning: cell-coordinate distance δ spans at
// most δ·max(ν, µ) raw units between cell centers, plus one cell diagonal
// of slack for the cells' own extent.
func (c *Center) deltaRaw(delta float64) float64 {
	return delta*math.Max(c.Grid.CellW, c.Grid.CellH) +
		math.Hypot(c.Grid.CellW, c.Grid.CellH)
}

// queryDigest is the SHA-256 of a query's kind, parameters and cells: the
// question every cache key of the query names. The cell set is already
// sorted and de-duplicated (the cellset.Set invariant), so equal queries
// digest equally regardless of how they were built.
func queryDigest(kind byte, a, b uint64, cells cellset.Set) [sha256.Size]byte {
	buf := make([]byte, 0, 17+8*len(cells))
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, a)
	buf = binary.LittleEndian.AppendUint64(buf, b)
	for _, cell := range cells {
		buf = binary.LittleEndian.AppendUint64(buf, cell)
	}
	return sha256.Sum256(buf)
}

// answerKey is the result-cache key of the answer to the query with digest
// d computed from members (name-sorted): one source for an OJSP entry, every
// member for a CJSP one. Each member contributes what its part of the
// answer depends on: its name, its registration generation, its data
// version in vers (read before any call, so a mutation racing the call
// re-keys the entry it fills) and its summary Rect, which fixes the clip and
// the DITS-G extent. A re-registration or a moved extent at a source re-keys
// exactly the entries computed from it, and so does a mutation for a CJSP
// entry. An OJSP key is made with vers nil: its entry (ojspEntry) carries
// the version instead, so a write that cannot change the answer does not
// re-key it.
//
// The key is a SHA-256, not the serialization itself: a query's cells run
// to thousands, and a full cache would hold tens of megabytes of keys. Two
// different answers therefore share an entry only if they collide under
// SHA-256, for which no instance is known; a 64-bit hash would not do, as
// colliding inputs for those can be constructed or simply met by chance
// over a long-lived cache.
func answerKey(d *[sha256.Size]byte, vers map[string]uint64, members ...*member) string {
	n := len(d)
	for _, m := range members {
		n += 50 + len(m.summary.Name)
	}
	buf := append(make([]byte, 0, n), d[:]...)
	for _, m := range members {
		s := &m.summary
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Name)))
		buf = append(buf, s.Name...)
		buf = binary.LittleEndian.AppendUint64(buf, m.gen)
		buf = binary.LittleEndian.AppendUint64(buf, vers[s.Name])
		for _, f := range [...]float64{s.Rect.MinX, s.Rect.MinY, s.Rect.MaxX, s.Rect.MaxY} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	sum := sha256.Sum256(buf)
	return string(sum[:])
}

// OverlapSearch answers the multi-source OJSP: the k datasets with the
// largest overlap with the query across all registered sources. Each
// candidate source's local top-k comes from the cache when it holds one
// under that source's current key; only the sources that miss are asked.
func (c *Center) OverlapSearch(ctx context.Context, queryCells cellset.Set, k int) ([]SourceResult, error) {
	ep, rc := c.epoch.Load(), c.Cache()
	p := c.prepQuery(ctx, ep, rc, *c.versions.Load(), OverlapRequest{Cells: queryCells, K: k})
	// Fan out to the sources that missed in parallel: sources are
	// independent machines, so their local searches overlap in time.
	calls := make([]memberCall, len(p.asks))
	for i, a := range p.asks {
		calls[i] = memberCall{m: a.m, method: MethodOverlap,
			req: &OverlapRequest{Cells: a.clip, K: k}, resp: new(OverlapResponse)}
	}
	errs := c.callMembers(ctx, calls)
	if err := c.resolve(calls, errs, nil); err != nil {
		return nil, err
	}
	all := p.found
	for i, call := range calls {
		// A skipped source's answer is never cached: it may recover.
		if errs[i] == nil {
			all = keepAnswer(rc, p.asks[i], all, call.resp.(*OverlapResponse))
		}
	}
	return topK(all, k), nil // aggregate: global top-k, deterministic tie-break
}

// ojspEntry is a cached OJSP answer: one source's local top-k, computed at
// (or after) the source's data version the center knew before the call.
type ojspEntry struct {
	version uint64
	items   []OverlapItem
}

// keepAnswer caches the answer to one ask and appends it to dst as
// federated results. The cached items are the decoded response's own
// exact-length slice: nothing else holds it, and every reader copies out.
func keepAnswer(rc *cache.Cache, a overlapAsk, dst []SourceResult, resp *OverlapResponse) []SourceResult {
	rc.Put(a.key, ojspEntry{version: a.version, items: resp.Results})
	return appendResults(dst, a.m.summary.Name, resp.Results)
}

// appendResults appends one source's local top-k as federated results.
func appendResults(dst []SourceResult, source string, items []OverlapItem) []SourceResult {
	for _, r := range items {
		dst = append(dst, SourceResult{Source: source, ID: r.ID, Name: r.Name, Overlap: r.Overlap})
	}
	return dst
}

// CoverageResult is the outcome of a federated CJSP search.
type CoverageResult struct {
	Picked        []SourceResult // in greedy pick order; Overlap field holds the gain
	Coverage      int            // |S_Q ∪ picked|
	QueryCoverage int            // |S_Q|
}

// CoverageSearch answers the multi-source CJSP greedily: each iteration
// asks every candidate source for its best connected dataset given the
// merged result so far, picks the global maximum marginal gain, merges it,
// and repeats up to k times (§VI-A + Algorithm 3 lifted to the federation).
// With Options.Sessions it runs the session protocol — delta-shipped
// rounds, two-phase winner fetch — which produces identical results to the
// stateless protocol at a fraction of the bytes.
func (c *Center) CoverageSearch(ctx context.Context, queryCells cellset.Set, delta float64, k int) (CoverageResult, error) {
	res := CoverageResult{QueryCoverage: queryCells.Len(), Coverage: queryCells.Len()}
	if k <= 0 || queryCells.IsEmpty() {
		return res, nil
	}
	ep := c.epoch.Load()
	if len(ep.members) == 0 {
		return res, nil
	}
	rc := c.Cache()
	key := ""
	if rc != nil {
		// A greedy coverage query may contact any source as its merged
		// region grows, so its one entry is keyed over every member: any
		// mutation or membership change anywhere re-keys coverage entries.
		d := queryDigest('C', uint64(k), math.Float64bits(delta), queryCells)
		key = answerKey(&d, *c.versions.Load(), ep.ordered...)
		_, probe := obs.StartSpan(ctx, "cache.probe")
		v, ok := rc.Get(key)
		hits := 0
		if ok {
			hits = 1
		}
		endProbe(probe, hits, 1)
		if ok {
			cached := v.(CoverageResult)
			cached.Picked = append([]SourceResult(nil), cached.Picked...)
			return cached, nil
		}
	}
	var degraded bool
	var err error
	if c.Options.Sessions {
		res, degraded, err = c.coverageSession(ctx, ep, queryCells, delta, k, res)
	} else {
		res, degraded, err = c.coverageStateless(ctx, ep, queryCells, delta, k, res)
	}
	if err != nil {
		return res, err
	}
	if rc != nil && !degraded {
		// Degraded answers (a skipped source under SkipFailed) are never
		// cached: the source may recover on the next query.
		cached := res
		cached.Picked = append([]SourceResult(nil), res.Picked...)
		rc.Put(key, cached)
	}
	return res, nil
}

// coverageStateless is the original per-round-broadcast protocol: every
// round ships the full clipped merged state to every candidate, and every
// candidate answers with its best pick's full cell set.
// It also reports whether the answer is degraded (a source was skipped
// under the tolerant policy).
func (c *Center) coverageStateless(ctx context.Context, ep *epochSnap, queryCells cellset.Set, delta float64, k int, res CoverageResult) (CoverageResult, bool, error) {
	merged := queryCells
	excluded := make(map[string][]int)
	failed := make(map[string]bool)
	draw := c.deltaRaw(delta)

	for len(res.Picked) < k {
		if err := ctx.Err(); err != nil {
			return res, len(failed) > 0, err
		}
		qn, ok := c.queryNode(merged)
		if !ok {
			break
		}
		// One span per greedy round: the per-source coverage RPCs of the
		// round nest under it.
		rctx, rsp := obs.StartSpan(ctx, "cjsp.round")
		members := c.candidates(ep, qn, draw)
		members = slices.DeleteFunc(slices.Clone(members), func(m *member) bool {
			return failed[m.summary.Name]
		})
		var calls []memberCall
		for _, m := range members {
			if cells := c.clipFor(m, merged, delta+1); !cells.IsEmpty() {
				req := &CoverageRequest{Merged: cells, Delta: delta, Exclude: excluded[m.summary.Name]}
				calls = append(calls, memberCall{m: m, method: MethodCoverage, req: req, resp: new(CoverageCandidate)})
			}
		}
		errs := c.callMembers(rctx, calls)
		if err := c.resolve(calls, errs, func(i int) {
			failed[calls[i].m.summary.Name] = true
		}); err != nil {
			rsp.EndErr(err)
			return res, len(failed) > 0, err
		}
		var best *offer
		for i, call := range calls {
			if cand := call.resp.(*CoverageCandidate); errs[i] == nil && cand.Found {
				if o := (offer{src: call.m.summary.Name, cand: *cand}); best == nil || betterOffer(o, *best) {
					best = &o
				}
			}
		}
		rsp.End()
		if best == nil || best.cand.Gain == 0 {
			break // nothing connected is left, or nothing left adds a cell
		}
		name := best.src
		excluded[name] = append(excluded[name], best.cand.ID)
		merged = merged.Union(best.cand.Cells)
		res.Picked = append(res.Picked, SourceResult{
			Source: name, ID: best.cand.ID, Name: best.cand.Name, Overlap: best.cand.Gain,
		})
		res.Coverage = merged.Len()
	}
	return res, len(failed) > 0, nil
}

// srcState is the center's per-source view of one coverage session.
type srcState struct {
	m       *member
	open    bool                 // session established at the source
	pending *cellset.Compact     // clipped winner cells not yet shipped
	last    *offer               // cached offer, nil when none is left
	lastOK  bool                 // last/nil is a valid answer for the current state
	guard   []coverage.GuardSpan // where a pending cell voids last (Offer.Guard)
	hit     bool                 // a pending cell lies in guard
	bound   int                  // the most a fresh offer can gain: last's gain, or a met span's ceiling
	version uint64               // the source's data version, as the center saw it, when last was made
	failed  bool                 // degraded: dropped for the rest of the query
}

// offered records a source's answer for its current state at data version
// v: o, or nil when the source has no connected dataset left.
func (st *srcState) offered(o Offer, v uint64) {
	st.last, st.lastOK, st.guard, st.hit, st.bound, st.version = nil, true, o.Guard, false, o.Gain, v
	if o.Found {
		st.last = &offer{src: st.m.summary.Name, cand: CoverageCandidate{
			Found: true, ID: o.ID, Name: o.Name, Gain: o.Gain,
		}}
	}
}

// coverageSession runs CJSP over the session protocol. Invariants per
// round: a source with an open session holds exactly the clip of the
// center's merged state minus its pending delta, and its cached offer is
// exact for that state plus pending while no pending cell lies in the
// offer's guard and the center has seen no write at the source — gains only
// fall as the state grows (coverage.Guard). Such a source is not asked: its
// cached offer competes as it stands, and its pending delta keeps growing
// until the source is asked, or rides in the fetch when its offer wins. A
// source with a pending cell in its guard has a bound instead, the most its
// fresh offer can gain; it is asked only when the bound reaches the best
// offer that stands (ties too, which the source name can break its way).
// The winner's fetch answers the winner's next offer, so a winner is not
// asked again either; the k-th pick is not fetched at all. The sessions the
// query leaves open go on the center's close list for their sources
// (closeLater). It also reports whether the answer is degraded (a source
// was skipped under the tolerant policy).
func (c *Center) coverageSession(ctx context.Context, ep *epochSnap, queryCells cellset.Set, delta float64, k int, res CoverageResult) (CoverageResult, bool, error) {
	sessID := nextSessionID()
	draw := c.deltaRaw(delta)
	states := make(map[string]*srcState)
	merged := cellset.FromSet(queryCells)
	minX, minY, maxX, maxY, ok := merged.Bounds()
	if !ok {
		return res, false, nil
	}
	anyFailed := func() bool {
		for _, st := range states {
			if st.failed {
				return true
			}
		}
		return false
	}
	excluded := make(map[string][]int)
	defer c.closeLater(states, sessID)
	var vers map[string]uint64 // the center's version vector at the round's start

	// ask sends one coverage.round to each of the given sources — the
	// pending delta where the session is open, the full clipped state where
	// it is not, and the sessions to close there — and records every answer
	// as that source's current offer.
	var ask func(rctx context.Context, members []*member) error
	ask = func(rctx context.Context, members []*member) error {
		var calls []memberCall
		for _, m := range members {
			name := m.summary.Name
			st := states[name]
			req := &CoverageRoundRequest{Session: sessID, Delta: delta, Exclude: excluded[name]}
			if st.open {
				req.Added = st.pending
			} else {
				req.Base = c.clipCompact(m, merged, delta+1)
				if req.Base.IsEmpty() {
					continue // nothing of the merged state near this source yet
				}
			}
			c.closeMu.Lock() // the sessions to close there go with the round
			req.Close = c.closing[name]
			delete(c.closing, name)
			c.closeMu.Unlock()
			calls = append(calls, memberCall{m: m, method: MethodCoverageRound, req: req, resp: new(CoverageRoundResponse)})
		}
		errs := c.callMembers(rctx, calls)
		if err := c.resolve(calls, errs, func(i int) {
			st := states[calls[i].m.summary.Name]
			st.failed, st.open = true, false
		}); err != nil {
			return err
		}
		var missed []*member
		for i, call := range calls {
			if errs[i] != nil {
				continue
			}
			m := call.m
			st, out := states[m.summary.Name], call.resp.(*CoverageRoundResponse)
			if out.SessionMiss {
				// Stateless fallback: the source evicted the session; ask it
				// again with the full clipped state, which re-opens it.
				st.open, st.lastOK = false, false
				missed = append(missed, m)
				continue
			}
			// A source whose table was full answered without storing the
			// session; keep shipping it full state until it has room.
			st.open, st.pending = !out.Stateless, nil
			st.offered(out.Offer, vers[m.summary.Name])
		}
		if len(missed) > 0 {
			return ask(rctx, missed) // carries Base, so it cannot miss again
		}
		return nil
	}

rounds:
	for len(res.Picked) < k {
		if err := ctx.Err(); err != nil {
			return res, anyFailed(), err
		}
		// One span per greedy round; the round's delta-ship RPCs and the
		// winner's cell fetch nest under it.
		rctx, rsp := obs.StartSpan(ctx, "cjsp.round")
		qn := c.boundsQueryNode(minX, minY, maxX, maxY)
		cands := c.candidates(ep, qn, draw)
		vers = *c.versions.Load()

		// Phase one: collect offers — cached where nothing held back can
		// change them, over the wire (delta-shipped) where it can, unless
		// the source's bound says it cannot win.
		var changed []*member
		for _, m := range cands {
			name := m.summary.Name
			st := states[name]
			if st == nil {
				st = &srcState{m: m}
				states[name] = st
			}
			if !st.failed && !(st.open && st.lastOK && st.version == vers[name]) {
				st.lastOK = false
				changed = append(changed, m)
			}
		}
		// contenders are the sources whose guard was hit and whose bound
		// reaches floor, the best offer that stands (all of them for nil).
		standing := func() *offer {
			var b *offer
			for _, m := range cands {
				if st := states[m.summary.Name]; !st.failed && st.lastOK && !st.hit && st.last != nil && (b == nil || betterOffer(*st.last, *b)) {
					b = st.last
				}
			}
			return b
		}
		contenders := func(floor *offer) []*member {
			var out []*member
			for _, m := range cands {
				if st := states[m.summary.Name]; !st.failed && st.lastOK && st.hit && (floor == nil || st.bound >= floor.cand.Gain) {
					out = append(out, m)
				}
			}
			return out
		}
		if err := ask(rctx, append(changed, contenders(standing())...)); err != nil {
			rsp.EndErr(err)
			return res, anyFailed(), err
		}

		// Phase two: pick the global winner and fetch its cells — the
		// only cell set shipped back this round. The best offer can fall
		// below a bound left unasked (its source failed, or its dataset
		// went stale): such a source is asked before the pick.
		var winner *offer
		var winnerCells *cellset.Compact
		for {
			best := standing()
			if c := contenders(best); len(c) > 0 {
				if err := ask(rctx, c); err != nil {
					rsp.EndErr(err)
					return res, anyFailed(), err
				}
				continue
			}
			if best == nil || best.cand.Gain == 0 {
				// No source has a connected dataset left, or the best adds
				// no cell: neither would any later round's.
				rsp.End()
				break rounds
			}
			if len(res.Picked) == k-1 {
				// The k-th pick is not fetched: its cells would serve only
				// the coverage, and its gain is exact. Its dataset existed
				// at its source when offered (docs/PROTOCOL.md).
				res.Picked = append(res.Picked, SourceResult{
					Source: best.src, ID: best.cand.ID, Name: best.cand.Name, Overlap: best.cand.Gain,
				})
				res.Coverage += best.cand.Gain
				rsp.End()
				break rounds
			}
			// Picked or stale, the source must never offer this ID again.
			st := states[best.src]
			excluded[best.src] = append(excluded[best.src], best.cand.ID)
			fetch, err := c.fetchCells(rctx, st, sessID, best.cand.ID, excluded[best.src])
			if err == nil && !fetch.Found {
				// The offer went stale — the dataset was deleted after the
				// source offered it. The source has not failed: ask it
				// alone for its next best, re-pick.
				st.lastOK = false
				if err := ask(rctx, []*member{st.m}); err != nil {
					rsp.EndErr(err)
					return res, anyFailed(), err
				}
				continue
			}
			if err != nil {
				if c.Options.OnSourceError == FailFast {
					rsp.EndErr(err)
					return res, anyFailed(), err
				}
				c.Metrics.RecordFailure(best.src)
				st.failed, st.open = true, false
				continue // re-pick among the surviving offers
			}
			if fetch.Committed {
				st.pending = nil
				st.offered(fetch.Next, vers[best.src])
			} else {
				// Session evicted between round and fetch: re-open with
				// the full state next round.
				st.open, st.lastOK = false, false
			}
			winner, winnerCells = best, fetch.Cells
			break
		}

		// Merge and compute next round's deltas.
		merged = merged.Union(winnerCells)
		if wMinX, wMinY, wMaxX, wMaxY, ok := winnerCells.Bounds(); ok {
			minX, minY = min(minX, wMinX), min(minY, wMinY)
			maxX, maxY = max(maxX, wMaxX), max(maxY, wMaxY)
		}
		for name, st := range states {
			if !st.open || name == winner.src {
				// The winning source folded its own cells at fetch time
				// and answered its next offer there.
				continue
			}
			if clipped := c.clipCompact(st.m, winnerCells, delta+1); !clipped.IsEmpty() {
				st.pending = st.pending.Union(clipped)
				for _, sp := range st.guard {
					if (!st.hit || sp.Ceil > st.bound) && clipped.Meets(sp.Span) {
						st.hit, st.bound = true, max(st.bound, sp.Ceil)
					}
				}
			}
		}
		res.Picked = append(res.Picked, SourceResult{
			Source: winner.src, ID: winner.cand.ID, Name: winner.cand.Name, Overlap: winner.cand.Gain,
		})
		res.Coverage = merged.Len()
		rsp.End()
	}
	return res, anyFailed(), nil
}

// memberCall is one exchange with one member: resp (nil to discard the
// answer) receives the member's reply to req.
type memberCall struct {
	m         *member
	method    string
	req, resp any
}

// callMembers performs a fan-out's calls and returns their errors in call
// order. It is the center's only way to a member — every query class and
// every mutation goes through it: by default one goroutine per call on the
// member's own peer (so each peer is driven by exactly one goroutine per
// fan-out), through relay when set.
func (c *Center) callMembers(ctx context.Context, calls []memberCall) []error {
	if len(calls) == 0 {
		return nil
	}
	var errs []error
	if c.relay != nil {
		errs = c.relay(ctx, calls)
	} else {
		_, errs = fanOut(calls, func(mc memberCall) (struct{}, error) {
			return struct{}{}, mc.m.peer.Call(ctx, mc.method, mc.req, mc.resp)
		})
	}
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("federation: %s at %s: %w", calls[i].method, calls[i].m.summary.Name, err)
		}
	}
	return errs
}

// fetchCells performs the second-phase coverage.fetch exchange. When the
// session is open it commits the held-back delta and the cells and asks
// for the next offer against exclude; otherwise it only fetches.
func (c *Center) fetchCells(ctx context.Context, st *srcState, sess uint64, id int, exclude []int) (FetchCellsResponse, error) {
	var resp FetchCellsResponse
	req := FetchCellsRequest{ID: id}
	if st.open {
		req.Session, req.Exclude, req.Added = sess, exclude, st.pending
	}
	errs := c.callMembers(ctx, []memberCall{{m: st.m, method: MethodFetchCells, req: &req, resp: &resp}})
	return resp, errs[0]
}

// closeLater puts the sessions a query leaves open on their sources' close
// lists: the next coverage.round this center sends a source carries them,
// and the source drops them first. A source no round reaches again
// reclaims them by its TTL, as it does a crashed center's.
func (c *Center) closeLater(states map[string]*srcState, sessID uint64) {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	for name, st := range states {
		if st.open {
			c.closing[name] = append(c.closing[name], sessID)
		}
	}
}

// Shard returns every registered source's root summary and data version,
// name-sorted — what this center reports to a cluster gateway's probe.
func (c *Center) Shard() []ShardSource {
	ep, vers := c.epoch.Load(), *c.versions.Load()
	out := make([]ShardSource, len(ep.ordered))
	for i, m := range ep.ordered {
		out[i] = ShardSource{Summary: m.summary, Version: vers[m.summary.Name]}
	}
	return out
}

// MutateResult is the center-side outcome of a federated dataset mutation:
// the source's answer (Found is always true for a put) and where it went.
type MutateResult struct {
	Source string
	ID     int
	MutateResponse
}

// PutDataset durably upserts one dataset at the named source (method
// dataset.put) and invalidates the affected result-cache entries: the
// source's data version bumps (re-keying every cached CJSP answer, and
// leaving that source's OJSP answers to the write-log replay of their next
// hit), and if the mutation changed the source's root summary the
// membership epoch advances so DITS-G candidate filtering sees the
// source's new extent.
func (c *Center) PutDataset(ctx context.Context, source string, id int, name string, cells cellset.Set) (MutateResult, error) {
	if cells.IsEmpty() {
		return MutateResult{}, fmt.Errorf("federation: dataset %d has no cells", id)
	}
	return c.mutate(ctx, source, id, MethodDatasetPut, &DatasetPutRequest{ID: id, Name: name, Cells: cells})
}

// DeleteDataset durably removes one dataset at the named source (method
// dataset.delete). Deleting an ID the source does not hold returns
// Found=false and mutates nothing.
func (c *Center) DeleteDataset(ctx context.Context, source string, id int) (MutateResult, error) {
	return c.mutate(ctx, source, id, MethodDatasetDelete, &DatasetDeleteRequest{ID: id})
}

// mutate routes one mutation to its source, logs it in the source's write
// log and folds the response into the center's version vector and (when
// the summary moved) DITS-G.
func (c *Center) mutate(ctx context.Context, source string, id int, method string, req any) (MutateResult, error) {
	ep := c.epoch.Load()
	m, ok := ep.members[source]
	if !ok {
		return MutateResult{}, fmt.Errorf("%w: %q", ErrUnknownSource, source)
	}
	var resp MutateResponse
	if err := c.callMembers(ctx, []memberCall{{m: m, method: method, req: req, resp: &resp}})[0]; err != nil {
		return MutateResult{}, err
	}
	res := MutateResult{Source: source, ID: id, MutateResponse: resp}
	if method == MethodDatasetDelete && !resp.Found {
		return res, nil // nothing changed; nothing to invalidate
	}
	// The write is logged before its version is noted, and even when the
	// note is dropped as out of order: a cached OJSP answer of this source
	// replays the log up to the version the center knows.
	w := write{version: resp.Version, id: id}
	if put, ok := req.(*DatasetPutRequest); ok {
		w.cells = put.Cells
	}
	m.writes.add(w)
	c.noteMutation(ep, source, resp)
	return res, nil
}

// noteMutation records a source's post-mutation data version and, when
// the mutation moved the source's root summary, publishes a new
// membership epoch whose DITS-G is built with the updated summary (the
// same epoch swap Register uses). Notes are applied in version order:
// a response that raced past a newer one is dropped entirely, so a
// late-arriving older (Version, Summary) pair — the pair is snapshotted
// atomically at the source — can never roll DITS-G back to a stale
// summary or move the version vector backwards.
//
// A note whose RPC was issued before the source's latest
// Register/Unregister is dropped: it comes from a PREVIOUS incarnation
// (crashed, rebuilt at version 0, re-registered) or a departed one, and
// re-installing its old high version would make the monotonic guard
// swallow the new incarnation's notes forever. The drop is safe for the
// cache — the re-registered member's generation already re-keyed the
// source's entries. Notes merely racing an UNRELATED epoch swap are
// processed against the current epoch, so an acknowledged mutation's
// summary refresh is never lost to a concurrent membership change.
func (c *Center) noteMutation(ep *epochSnap, source string, resp MutateResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.epoch.Load()
	m, ok := cur.members[source]
	if !ok || m.gen > ep.gen {
		return // response from a departed or superseded incarnation
	}
	old := *c.versions.Load()
	if resp.Version <= old[source] {
		return // stale or duplicate response; a newer state is already noted
	}
	nv := make(map[string]uint64, len(old)+1)
	maps.Copy(nv, old)
	nv[source] = resp.Version
	c.versions.Store(&nv)
	if m.summary != resp.Summary {
		members := make(map[string]*member, len(cur.members))
		maps.Copy(members, cur.members)
		members[source] = &member{summary: resp.Summary, peer: m.peer, gen: m.gen, writes: m.writes}
		c.swapEpochLocked(cur, members) // counts the invalidation itself
		return
	}
	c.invalidations.Add(1)
}

// SourceVersions returns the center's view of each mutated source's data
// version. Sources that never mutated through this center are absent.
func (c *Center) SourceVersions() map[string]uint64 {
	out := make(map[string]uint64)
	maps.Copy(out, *c.versions.Load())
	return out
}

// CacheInvalidations returns the number of cache-invalidation events the
// center processed: one per applied mutation, one per membership change.
func (c *Center) CacheInvalidations() int64 { return c.invalidations.Load() }

// endProbe finishes a query's cache.probe span with the outcome in its
// Source field — hit (every probe), partial or miss (none) — so a span tree
// shows at a glance whether the query reached the sources.
func endProbe(sp *obs.ActiveSpan, hits, probes int) {
	switch hits {
	case probes:
		sp.SetSource("hit")
	case 0:
		sp.SetSource("miss")
	default:
		sp.SetSource("partial")
	}
	sp.End()
}

// offer is one source's candidate in a coverage iteration.
type offer struct {
	src  string
	cand CoverageCandidate
}

// betterOffer orders candidate offers by gain descending, then source name,
// then dataset ID, for deterministic aggregation.
func betterOffer(a, b offer) bool {
	if a.cand.Gain != b.cand.Gain {
		return a.cand.Gain > b.cand.Gain
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.cand.ID < b.cand.ID
}

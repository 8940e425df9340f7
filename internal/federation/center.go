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

// member is one registered source: its summary and its connection.
type member struct {
	summary dits.SourceSummary
	peer    transport.Peer
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
	// an atomic pointer: queries fold the versions of the sources they
	// may touch into their cache keys, so a mutation re-keys exactly the
	// affected entries (the stale ones age out of the LRU unreferenced).
	versions atomic.Pointer[map[string]uint64]
	// invalidations counts cache-invalidation events: one per applied
	// mutation and one per membership epoch change.
	invalidations atomic.Int64

	mu    sync.Mutex // serializes membership changes and guards cache
	cache *cache.Cache
	// regGen records, per source, the epoch generation of its latest
	// Register/Unregister (guarded by mu). Mutation notes pinned to an
	// earlier generation come from a previous incarnation of the source
	// and are dropped; notes merely racing an unrelated epoch swap pass.
	regGen map[string]uint64

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
	}
	c.epoch.Store(&epochSnap{
		members: map[string]*member{},
		global:  dits.BuildGlobal(nil, dits.DefaultLeafCapacity),
	})
	c.versions.Store(&map[string]uint64{})
	c.regGen = map[string]uint64{}
	return c
}

// SetCache installs a result cache memoizing whole-query answers keyed by
// the canonical query (cell set + parameters). Pass nil to disable. The
// cache is cleared whenever membership changes, since cached results could
// otherwise include departed sources or miss new ones.
func (c *Center) SetCache(rc *cache.Cache) {
	c.mu.Lock()
	c.cache = rc
	c.mu.Unlock()
}

// Cache returns the installed result cache (nil when disabled). Query
// results are keyed by the pinned epoch's generation, so an entry computed
// under an old epoch can never be returned to a query started after a
// membership change even if it is Put after the change's Clear.
func (c *Center) Cache() *cache.Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache
}

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
	members[summary.Name] = &member{summary: summary, peer: peer}
	// Registration is an authoritative reset of the source's state: drop
	// its version entry so a rebuilt source whose data version restarted
	// from zero is not shadowed by the previous incarnation's counter,
	// and stamp the new generation so in-flight mutation responses from
	// the previous incarnation are dropped rather than re-noted. The
	// epoch bump below invalidates every cached entry regardless.
	c.dropVersionLocked(summary.Name)
	c.swapEpochLocked(old, members)
	c.regGen[summary.Name] = c.epoch.Load().gen
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
	var summary dits.SourceSummary
	if err := peer.Call(ctx, MethodSummary, nil, &summary); err != nil {
		return dits.SourceSummary{}, fmt.Errorf("federation: fetch summary: %w", err)
	}
	if c.Grid.Theta != 0 {
		if err := checkGrid(summary, c.Grid); err != nil {
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
	c.regGen[name] = c.epoch.Load().gen
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
	c.cache.Clear()
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

// clipFor returns the query cells shipped to a source: the full set, or the
// portion within the source's root MBR expanded by expandCells grid cells.
func (c *Center) clipFor(m *member, cells cellset.Set, expandCells float64) cellset.Set {
	if !c.Options.ClipQuery {
		return cells
	}
	expand := expandCells * math.Max(c.Grid.CellW, c.Grid.CellH)
	return cells.FilterRect(c.Grid, m.summary.Rect.Expand(expand))
}

// deltaRaw converts a connectivity threshold in cell units to a safe raw
// distance for global-index pruning: cell-coordinate distance δ spans at
// most δ·max(ν, µ) raw units between cell centers, plus one cell diagonal
// of slack for the cells' own extent.
func (c *Center) deltaRaw(delta float64) float64 {
	return delta*math.Max(c.Grid.CellW, c.Grid.CellH) +
		math.Hypot(c.Grid.CellW, c.Grid.CellH)
}

// queryKey canonicalizes a query for the result cache. The cell set is
// already sorted and de-duplicated (the cellset.Set invariant), so equal
// queries serialize to equal keys regardless of how they were built. gen
// is the membership generation the query started under, and members are
// the sources whose data could contribute to the answer (name-sorted):
// each one's (name, data version) pair is folded into the key, so any
// mutation at a contributing source re-keys the entry — targeted
// invalidation without scanning the cache — while mutations at sources
// the query can never touch leave its entries valid. A membership change
// bumps gen, which re-keys (and Clears) everything.
//
// The key is the SHA-256 of that serialization, not the serialization
// itself: a query's cells run to thousands, and a full cache would hold
// tens of megabytes of keys. Two different queries therefore share an
// entry — and one gets the other's answer — only if they collide under
// SHA-256, for which no instance is known; a 64-bit hash would not do, as
// colliding inputs for those can be constructed or simply met by chance
// over a long-lived cache.
func (c *Center) queryKey(gen uint64, kind byte, a, b uint64, cells cellset.Set, members []*member) string {
	vers := *c.versions.Load()
	n := 25 + 8*len(cells)
	for _, m := range members {
		n += 10 + len(m.summary.Name)
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, a)
	buf = binary.LittleEndian.AppendUint64(buf, b)
	for _, m := range members {
		name := m.summary.Name
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = binary.LittleEndian.AppendUint64(buf, vers[name])
	}
	for _, cell := range cells {
		buf = binary.LittleEndian.AppendUint64(buf, cell)
	}
	sum := sha256.Sum256(buf)
	return string(sum[:])
}

// OverlapSearch answers the multi-source OJSP: the k datasets with the
// largest overlap with the query across all registered sources.
func (c *Center) OverlapSearch(ctx context.Context, queryCells cellset.Set, k int) ([]SourceResult, error) {
	if k <= 0 || queryCells.IsEmpty() {
		return nil, nil
	}
	ep := c.epoch.Load()
	if len(ep.members) == 0 {
		return nil, nil
	}
	qn, ok := c.queryNode(queryCells)
	if !ok {
		return nil, nil
	}
	// Candidates are computed before the cache probe: the key embeds each
	// candidate's data version, so a mutation at any source that could
	// contribute to this answer misses the stale entry.
	members := c.candidates(ep, qn, 0)
	rc := c.Cache()
	key := ""
	if rc != nil {
		key = c.queryKey(ep.gen, 'O', uint64(k), 0, queryCells, members)
		_, probe := obs.StartSpan(ctx, "cache.probe")
		v, ok := rc.Get(key)
		endProbe(probe, ok)
		if ok {
			// Hand out a copy: callers may sort or truncate the slice.
			cached := v.([]SourceResult)
			return append([]SourceResult(nil), cached...), nil
		}
	}
	// Fan out to candidate sources in parallel: sources are independent
	// machines, so their local searches overlap in time.
	var calls []memberCall
	for _, m := range members {
		if cells := c.clipFor(m, queryCells, 0); !cells.IsEmpty() {
			calls = append(calls, memberCall{m: m, method: MethodOverlap,
				req: &OverlapRequest{Cells: cells, K: k}, resp: new(OverlapResponse)})
		}
	}
	errs := c.callMembers(ctx, calls)
	if err := c.resolve(calls, errs, nil); err != nil {
		return nil, err
	}
	degraded := false
	var all []SourceResult
	for i, call := range calls {
		if errs[i] != nil {
			degraded = true
			continue
		}
		all = appendResults(all, call.m.summary.Name, call.resp.(*OverlapResponse))
	}
	all = topK(all, k) // aggregate: global top-k, deterministic tie-break
	if rc != nil && !degraded {
		// Cache a private copy so later caller mutations cannot corrupt
		// it. Degraded answers (a skipped source under SkipFailed) are
		// never cached: the source may recover on the next query.
		rc.Put(key, append([]SourceResult(nil), all...))
	}
	return all, nil
}

// appendResults appends one source's local top-k as federated results.
func appendResults(dst []SourceResult, source string, resp *OverlapResponse) []SourceResult {
	for _, r := range resp.Results {
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
		// region grows, so the key carries the full membership version
		// vector: any mutation anywhere re-keys coverage entries.
		key = c.queryKey(ep.gen, 'C', uint64(k), math.Float64bits(delta), queryCells, ep.ordered)
		_, probe := obs.StartSpan(ctx, "cache.probe")
		v, ok := rc.Get(key)
		endProbe(probe, ok)
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
	// The merged-query state lives on the container engine: each greedy
	// round unions the winning candidate word-parallel, and the flat form
	// shipped to sources is rematerialized from it.
	mergedC := cellset.FromSet(queryCells)
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
		if best == nil {
			break // no source has a connected dataset left
		}
		name := best.src
		excluded[name] = append(excluded[name], best.cand.ID)
		mergedC = mergedC.Union(cellset.FromSet(best.cand.Cells))
		merged = mergedC.Set()
		res.Picked = append(res.Picked, SourceResult{
			Source: name, ID: best.cand.ID, Name: best.cand.Name, Overlap: best.cand.Gain,
		})
		res.Coverage = mergedC.Len()
	}
	return res, len(failed) > 0, nil
}

// srcState is the center's per-source view of one coverage session.
type srcState struct {
	m       *member
	open    bool             // session established at the source
	pending *cellset.Compact // clipped winner cells not yet shipped
	last    *offer           // cached offer, valid while nothing shipped changed
	lastOK  bool             // last/nil is a valid answer for the current state
	failed  bool             // degraded: dropped for the rest of the query
}

// offered records a source's answer for its current state: o, or nil when
// the source has no connected dataset left.
func (st *srcState) offered(o Offer) {
	st.last, st.lastOK = nil, true
	if o.Found {
		st.last = &offer{src: st.m.summary.Name, cand: CoverageCandidate{
			Found: true, ID: o.ID, Name: o.Name, Gain: o.Gain,
		}}
	}
}

// coverageSession runs CJSP over the session protocol. Invariants per
// round: a source with an open session holds exactly the clip of the
// center's merged state minus its pending delta; a source whose pending is
// empty and whose exclusion list did not change would answer exactly what
// it answered last round, so the center reuses the cached offer without a
// network call. The winner's fetch answers the winner's next offer, so a
// winner is not asked again either. The last round (k−1 picks made) is
// Final: the sources it asks drop their sessions after answering, and the
// open sessions it does not ask are closed beside it. It also reports
// whether the answer is degraded (a source was skipped under the tolerant
// policy).
func (c *Center) coverageSession(ctx context.Context, ep *epochSnap, queryCells cellset.Set, delta float64, k int, res CoverageResult) (CoverageResult, bool, error) {
	sessID := nextSessionID()
	draw := c.deltaRaw(delta)
	states := make(map[string]*srcState)
	mergedC := cellset.FromSet(queryCells)
	minX, minY, maxX, maxY, ok := queryCells.Bounds()
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
	mergedFlat := queryCells // valid while mergedFlatOK
	mergedFlatOK := true
	excluded := make(map[string][]int)
	final := false // this round is the query's last
	// The final round's closes run beside it and are joined before the
	// query returns; whatever is still open then — the query stopped short
	// of k picks, or failed — is closed last.
	var closing sync.WaitGroup
	defer func() {
		c.closeSessions(ctx, takeOpen(states, nil), sessID)
		closing.Wait()
	}()

	// ask sends one coverage.round to each of the given sources — the
	// pending delta where the session is open, the full clipped state where
	// it is not — and records every answer as that source's current offer.
	var ask func(rctx context.Context, members []*member) error
	ask = func(rctx context.Context, members []*member) error {
		var calls []memberCall
		for _, m := range members {
			name := m.summary.Name
			st := states[name]
			req := &CoverageRoundRequest{Session: sessID, Delta: delta, Exclude: excluded[name], Final: final}
			if st.open {
				req.Added = st.pending.Set()
			} else {
				if !mergedFlatOK {
					mergedFlat = mergedC.Set()
					mergedFlatOK = true
				}
				req.Base = c.clipFor(m, mergedFlat, delta+1)
				if req.Base.IsEmpty() {
					continue // nothing of the merged state near this source yet
				}
			}
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
			// session; keep shipping it full state until it has room. A
			// final round leaves no session behind.
			st.open, st.pending = !out.Stateless && !final, nil
			st.offered(out.Offer)
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
		final = len(res.Picked) == k-1

		// Phase one: collect offers — cached where nothing changed for
		// the source, over the wire (delta-shipped) where it did.
		var changed []*member
		for _, m := range cands {
			st := states[m.summary.Name]
			if st == nil {
				st = &srcState{m: m}
				states[m.summary.Name] = st
			}
			// With nothing shipped since its last answer and its exclusion
			// list untouched, a source would recompute the same offer.
			if !st.failed && !(st.open && st.lastOK && st.pending.IsEmpty()) {
				changed = append(changed, m)
			}
		}
		if final {
			// The sessions this round does not ask are done: close them
			// now, beside the round, rather than after the answer.
			if idle := takeOpen(states, func(st *srcState) bool { return !slices.Contains(changed, st.m) }); len(idle) > 0 {
				closing.Add(1)
				go func() {
					defer closing.Done()
					c.closeSessions(ctx, idle, sessID)
				}()
			}
		}
		if err := ask(rctx, changed); err != nil {
			rsp.EndErr(err)
			return res, anyFailed(), err
		}

		// Phase two: pick the global winner and fetch its cells — the
		// only cell set shipped back this round.
		var winner *offer
		var winnerCells cellset.Set
		for {
			var best *offer
			for _, m := range cands {
				st := states[m.summary.Name]
				if st.failed || !st.lastOK || st.last == nil {
					continue
				}
				if best == nil || betterOffer(*st.last, *best) {
					best = st.last
				}
			}
			if best == nil {
				rsp.End()
				break rounds // no source has a connected dataset left
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
				st.offered(fetch.Next)
			} else {
				// Session evicted between round and fetch (or already
				// dropped by the final round): re-open with the full state
				// next round.
				st.open, st.lastOK = false, false
			}
			winner, winnerCells = best, fetch.Cells
			break
		}

		// Merge and compute next round's deltas.
		winnerC := cellset.FromSet(winnerCells)
		mergedC = mergedC.Union(winnerC)
		mergedFlatOK = false
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
			clipped := c.clipFor(st.m, winnerCells, delta+1)
			if clipped.IsEmpty() {
				continue // winner is far from this source; its state and offer stand
			}
			st.pending = st.pending.Union(cellset.FromSet(clipped))
		}
		res.Picked = append(res.Picked, SourceResult{
			Source: winner.src, ID: winner.cand.ID, Name: winner.cand.Name, Overlap: winner.cand.Gain,
		})
		res.Coverage = mergedC.Len()
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

// fetchCells performs the second-phase coverage.fetch exchange. Into an
// open session it commits the cells and asks for the next offer against
// exclude; otherwise (a final round already dropped it) it only fetches.
func (c *Center) fetchCells(ctx context.Context, st *srcState, sess uint64, id int, exclude []int) (FetchCellsResponse, error) {
	var resp FetchCellsResponse
	req := FetchCellsRequest{ID: id}
	if st.open {
		req.Session, req.Exclude = sess, exclude
	}
	errs := c.callMembers(ctx, []memberCall{{m: st.m, method: MethodFetchCells, req: &req, resp: &resp}})
	return resp, errs[0]
}

// takeOpen marks closed, and returns the members of, the open sessions of
// healthy sources that pass keep (nil keeps all): the caller closes them.
func takeOpen(states map[string]*srcState, keep func(*srcState) bool) []*member {
	var ms []*member
	for _, st := range states {
		if st.open && !st.failed && (keep == nil || keep(st)) {
			st.open = false
			ms = append(ms, st.m)
		}
	}
	return ms
}

// closeSessions releases the given members' sessions, best-effort: sources
// reclaim lost sessions on their own. The query's own deadline may already
// have expired and cleanup should still go out, so it drops the caller's
// cancellation (keeping its trace) — but under its own bound, or one source
// that stopped answering would hold a finished query forever.
func (c *Center) closeSessions(ctx context.Context, ms []*member, sessID uint64) {
	if len(ms) == 0 {
		return
	}
	req := SessionCloseRequest{Session: sessID}
	calls := make([]memberCall, len(ms))
	for i, m := range ms {
		calls[i] = memberCall{m: m, method: MethodSessionClose, req: &req}
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), sessionCloseTimeout)
	defer cancel()
	c.callMembers(ctx, calls)
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
// source's data version bumps (re-keying every cached answer it could
// have contributed to), and if the mutation changed the source's root
// summary the membership epoch advances so DITS-G candidate filtering
// sees the source's new extent.
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

// mutate routes one mutation to its source and folds the response into
// the center's version vector and (when the summary moved) DITS-G.
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
// (crashed, rebuilt at version 0, re-registered), and re-installing its
// old high version would make the monotonic guard swallow the new
// incarnation's notes forever. The drop is safe for the cache — the
// re-registration's epoch bump already cleared and re-keyed everything.
// Notes merely racing an UNRELATED epoch swap are processed against the
// current epoch, so an acknowledged mutation's summary refresh is never
// lost to a concurrent membership change.
func (c *Center) noteMutation(ep *epochSnap, source string, resp MutateResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ep.gen < c.regGen[source] {
		return // response from a superseded incarnation of the source
	}
	old := *c.versions.Load()
	if resp.Version <= old[source] {
		return // stale or duplicate response; a newer state is already noted
	}
	nv := make(map[string]uint64, len(old)+1)
	maps.Copy(nv, old)
	nv[source] = resp.Version
	c.versions.Store(&nv)
	cur := c.epoch.Load()
	if m, ok := cur.members[source]; ok && m.summary != resp.Summary {
		members := make(map[string]*member, len(cur.members))
		maps.Copy(members, cur.members)
		members[source] = &member{summary: resp.Summary, peer: m.peer}
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

// endProbe finishes a cache.probe span with the outcome in its Source
// field, so a span tree shows at a glance whether the query hit.
func endProbe(sp *obs.ActiveSpan, hit bool) {
	if hit {
		sp.SetSource("hit")
	} else {
		sp.SetSource("miss")
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

package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/obs"
	"dits/internal/search/coverage"
	"dits/internal/search/exec"
	"dits/internal/search/overlap"
	"dits/internal/transport"
)

// Session housekeeping defaults: a source never holds more than
// DefaultMaxSessions coverage sessions and reclaims any session idle
// longer than DefaultSessionTTL. Both bound the memory a center crash (or
// a close list no later round carried) can strand at a source.
const (
	DefaultMaxSessions = 128
	DefaultSessionTTL  = 2 * time.Minute
)

// SourceServer is one autonomous data source: it owns its datasets, builds
// its own DITS-L index, and answers the data center's requests. The same
// handler serves both the in-process and the TCP transports.
//
// A SourceServer is safe for concurrent use: the index is immutable after
// construction (or guarded by the ingest store's lock), the
// coverage-session table is guarded by a mutex and each session by its
// own. Any one session is driven by one center query, round after round;
// different sessions proceed concurrently.
type SourceServer struct {
	Name  string
	Index *dits.Local

	// MaxSessions and SessionTTL override the eviction defaults when >0.
	MaxSessions int
	SessionTTL  time.Duration

	// store is the durable write path (EnableIngest). When set, every
	// index access — searches, session rounds, stats, summaries — goes
	// through the store's shared lock, so mutations serialize against
	// in-flight requests; when nil the source is read-only and the index
	// immutability contract applies unchanged.
	store *ingest.Store
	// ingestMu serializes mutation RPCs end-to-end (store mutation +
	// response snapshot), so a MutateResponse's Version and Summary always
	// describe the same index state — the center orders summary refreshes
	// by version and that ordering is only sound if the pair is atomic.
	ingestMu sync.Mutex

	mu       sync.Mutex
	sessions map[uint64]*covSession
	now      func() time.Time // test hook; time.Now when nil
}

// covSession is the per-query state of the session-based CJSP: the merged
// result set accumulated from the center's deltas, the datasets connected
// to it with a bound on each one's marginal gain and the log of cells each
// delta added (exec.LazyPicker), and the cells absorbed since that
// connected set was last extended. A round verifies connectivity against
// the pending delta alone and unions the result in (coverage.ConnectSet) —
// valid because connectivity to a growing set is monotone, as long as the
// index holds the data the connected set was computed over: version is the
// source's data version at that computation, and a round that finds
// another one starts over from the full merged set, dropping the bounds
// with the connected set.
type covSession struct {
	// mu serializes the rounds and fetches of one session. The center
	// drives a session sequentially, but a call it has given up on may
	// still be running here when its retry arrives.
	mu      sync.Mutex
	pick    exec.LazyPicker
	pending *cellset.Compact
	version uint64
	delta   float64
	// idx is rebuilt over the pending delta every round, in the buffers
	// the session's earlier rounds grew.
	idx cellset.DistIndex

	lastUsed time.Time // guarded by SourceServer.mu, not by mu
}

// reset (re)opens the session over the full clipped base set: nothing is
// known to be connected yet and the whole base is the pending delta.
func (cs *covSession) reset(base *cellset.Compact, delta float64, version uint64) {
	cs.pick.Reset(base)
	cs.pending = base
	cs.version = version
	cs.delta = delta
}

// absorb unions one round's delta cells into the session.
func (cs *covSession) absorb(added *cellset.Compact) {
	if added.IsEmpty() {
		return
	}
	// Cells the merged set held already were walked from, or are pending.
	cs.pending = cs.pending.Union(cs.pick.Absorb(added))
}

// connect brings the connected set up to date with the merged set. extend
// is the FindConnectSet tree search from a query node, folding what it
// finds into the connected set it is given, and returns the context's
// error if it may have been cut short; version is the data version of the
// index extend reads, taken under the same index lock. connect returns
// that error, and the connected set is then not known to be complete: it
// is dropped, for the next round to recompute from the whole merged set,
// since the pick relies on the set holding every connected dataset. The
// caller holds cs.mu.
func (cs *covSession) connect(version uint64, extend func(q *dataset.Node, qIdx *cellset.DistIndex, connected *coverage.ConnectSet) error) error {
	if version != cs.version {
		// A put or delete landed since the connected set was computed: a
		// new dataset may connect to cells verified long ago, a deleted
		// one must not be offered again, and a replaced one's bound is
		// meaningless. Recompute against everything.
		cs.pending = cs.pick.Merged()
		cs.pick.Forget()
		cs.version = version
	}
	cs.idx.Rebuild(cs.pending, cs.delta)
	if q := cellsNode(&cs.idx, cs.pending); q != nil {
		if err := extend(q, &cs.idx, &cs.pick.Connected); err != nil {
			cs.pending = cs.pick.Merged()
			cs.pick.Forget()
			return err
		}
		cs.pending = nil
	}
	return nil
}

// cellsNode wraps cells, which idx indexes, as the query-side node of a
// connectivity walk, which reads the geometry and leaves the cells to the
// index; unlike dataset.NewNodeFromCells it builds no flat form. Nil when
// cells is empty.
func cellsNode(idx *cellset.DistIndex, cells *cellset.Compact) *dataset.Node {
	minX, minY, maxX, maxY, ok := idx.Bounds()
	if !ok {
		return nil
	}
	r := geo.Rect{
		MinX: float64(minX), MinY: float64(minY),
		MaxX: float64(maxX), MaxY: float64(maxY),
	}
	return &dataset.Node{ID: -1, Rect: r, O: r.Center(), R: r.Radius(), Compact: cells}
}

// NewSourceServerWithGrid indexes pre-gridded dataset nodes. All federation
// members must share the grid for cell IDs to be comparable.
func NewSourceServerWithGrid(name string, idx *dits.Local) *SourceServer {
	return &SourceServer{Name: name, Index: idx}
}

// EnableIngest attaches a durable write path: the server adopts the
// store's live index and starts answering dataset.put / dataset.delete.
// Mutations and searches then share the store's lock — a request sees the
// index either before or after any mutation, never mid-apply. An open CJSP
// session answers each round from the index state current at that round:
// it notices a changed data version and recomputes its connected set
// (covSession), and a winner deleted between offer and fetch surfaces as
// Found=false, on which the center re-asks.
func (s *SourceServer) EnableIngest(st *ingest.Store) {
	s.store = st
	// s.Index is not cached from the store: with an mmap-served store the
	// live index pointer changes at every snapshot swap, so every access
	// goes through view (which reads the store's current index).
	s.Index = nil
}

// NumDatasets returns the current dataset count under the index lock —
// safe against concurrent mutations and snapshot swaps.
func (s *SourceServer) NumDatasets() int {
	var n int
	s.view(func(idx *dits.Local) { n = idx.Len() })
	return n
}

// Store returns the durable ingest store attached with EnableIngest, or
// nil for a read-only source. Callers use it to expose the store's metrics.
func (s *SourceServer) Store() *ingest.Store { return s.store }

// view runs fn with shared access to the index, honoring the store's
// mutation lock when the source is mutable.
func (s *SourceServer) view(fn func(idx *dits.Local)) {
	if s.store != nil {
		s.store.View(fn)
		return
	}
	fn(s.Index)
}

// Summary returns the root-node summary uploaded to the data center.
func (s *SourceServer) Summary() dits.SourceSummary {
	var sum dits.SourceSummary
	s.view(func(idx *dits.Local) { sum = idx.Summary(s.Name) })
	return sum
}

// DataVersion returns the source's current data version: 0 for read-only
// sources, the store's monotonic mutation count otherwise.
func (s *SourceServer) DataVersion() uint64 {
	if s.store == nil {
		return 0
	}
	return s.store.Version()
}

// NumSessions returns the number of live coverage sessions, sweeping any
// whose TTL lapsed first.
func (s *SourceServer) NumSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(s.clock())
	return len(s.sessions)
}

// Handler returns the transport.Handler serving this source. The context
// carries the center's propagated deadline; search handlers pass it to the
// cancellable executor so abandoned queries stop consuming the source.
func (s *SourceServer) Handler() transport.Handler {
	return func(ctx context.Context, codec transport.Codec, method string, body []byte) (any, error) {
		switch method {
		case MethodOverlap:
			return serve(codec, body, func(req OverlapRequest) (OverlapResponse, error) {
				return s.handleOverlap(ctx, req), nil
			})
		case MethodSearchBatch:
			return serve(codec, body, func(req SearchBatchRequest) (SearchBatchResponse, error) {
				return s.handleSearchBatch(ctx, req), nil
			})
		case MethodCoverage:
			return serve(codec, body, func(req CoverageRequest) (CoverageCandidate, error) {
				return s.handleCoverage(ctx, req), nil
			})
		case MethodCoverageRound:
			return serve(codec, body, func(req CoverageRoundRequest) (CoverageRoundResponse, error) {
				return s.handleCoverageRound(ctx, req), nil
			})
		case MethodFetchCells:
			return serve(codec, body, func(req FetchCellsRequest) (FetchCellsResponse, error) {
				return s.handleFetchCells(ctx, req), nil
			})
		case MethodDatasetPut:
			return serve(codec, body, s.handleDatasetPut)
		case MethodDatasetDelete:
			return serve(codec, body, s.handleDatasetDelete)
		case MethodWALShip:
			var req WALShipRequest
			if err := codec.Decode(body, &req); err != nil {
				return nil, err
			}
			if s.store == nil {
				return nil, fmt.Errorf("federation: source %s has no durable store to ship from", s.Name)
			}
			frames, version, tooOld, err := s.store.ShipWAL(req.After)
			if err != nil {
				return nil, err
			}
			return &WALShipResponse{Frames: frames, Version: version, TooOld: tooOld}, nil
		case MethodSourceVersion:
			return &VersionResponse{
				Name:    s.Name,
				Version: s.DataVersion(),
				Durable: s.store != nil,
			}, nil
		case MethodSummary:
			// Lets a data center bootstrap registration over the wire
			// (§V-B: "each source sends its root node to the data
			// center") instead of requiring out-of-band summaries.
			sum := s.Summary()
			return &sum, nil
		default:
			return nil, fmt.Errorf("federation: unknown method %q", method)
		}
	}
}

// executor is the query executor every search request takes. It holds no
// state, so all sources share it.
var executor exec.Executor

// handleDatasetPut durably upserts a dataset through the ingest store.
func (s *SourceServer) handleDatasetPut(req DatasetPutRequest) (MutateResponse, error) {
	if s.store == nil {
		return MutateResponse{}, fmt.Errorf("federation: source %s is read-only (no ingest store)", s.Name)
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	v, err := s.store.PutDataset(req.ID, req.Name, req.Cells)
	if err != nil {
		return MutateResponse{}, err
	}
	return s.mutateResponse(true, v), nil
}

// handleDatasetDelete durably removes a dataset. An unknown ID answers
// Found=false rather than an error, so centers can treat it as idempotent.
func (s *SourceServer) handleDatasetDelete(req DatasetDeleteRequest) (MutateResponse, error) {
	if s.store == nil {
		return MutateResponse{}, fmt.Errorf("federation: source %s is read-only (no ingest store)", s.Name)
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	v, err := s.store.DeleteDataset(req.ID)
	if errors.Is(err, ingest.ErrNotFound) {
		return s.mutateResponse(false, s.store.Version()), nil
	}
	if err != nil {
		return MutateResponse{}, err
	}
	return s.mutateResponse(true, v), nil
}

// mutateResponse snapshots the post-mutation version, summary, and size.
// The caller holds ingestMu, so no other mutation RPC can interleave
// between the apply and this snapshot.
func (s *SourceServer) mutateResponse(found bool, version uint64) MutateResponse {
	resp := MutateResponse{Found: found, Version: version}
	s.view(func(idx *dits.Local) {
		resp.NumDatasets = idx.Len()
		resp.Summary = idx.Summary(s.Name)
	})
	return resp
}

// handleOverlap runs the local OverlapSearch (Algorithm 2) on the source's
// executor.
func (s *SourceServer) handleOverlap(ctx context.Context, req OverlapRequest) OverlapResponse {
	q := dataset.NewNodeFromCells(-1, "query", req.Cells)
	if q == nil || req.K <= 0 {
		return OverlapResponse{}
	}
	var rs []overlap.Result
	_, sp := obs.StartSpan(ctx, "exec.overlap")
	s.view(func(idx *dits.Local) {
		rs, _ = executor.OverlapTopK(ctx, idx, q, req.K)
	})
	sp.End()
	return overlapResponse(rs)
}

// overlapResponse converts searcher results to the wire shape.
func overlapResponse(rs []overlap.Result) OverlapResponse {
	resp := OverlapResponse{Results: make([]OverlapItem, len(rs))}
	for i, r := range rs {
		resp.Results[i] = OverlapItem{ID: r.ID, Name: r.Name, Overlap: r.Overlap}
	}
	return resp
}

// handleSearchBatch answers a batch of OJSP queries in one shared pass
// over the tree (search/exec): node summaries and compact leaf sets are
// visited once per batch.
func (s *SourceServer) handleSearchBatch(ctx context.Context, req SearchBatchRequest) SearchBatchResponse {
	batch := make([]exec.BatchQuery, len(req.Queries))
	for i, q := range req.Queries {
		batch[i] = exec.BatchQuery{Q: dataset.NewNodeFromCells(-1, "query", q.Cells), K: q.K}
	}
	var outs [][]overlap.Result
	_, sp := obs.StartSpan(ctx, "exec.batch")
	s.view(func(idx *dits.Local) {
		outs, _ = executor.OverlapTopKBatch(ctx, idx, batch)
	})
	sp.End()
	resp := SearchBatchResponse{Results: make([]OverlapResponse, len(req.Queries))}
	for i, rs := range outs {
		resp.Results[i] = overlapResponse(rs)
	}
	return resp
}

// handleCoverage runs one stateless greedy iteration: FindConnectSet from
// the merged node, then the maximum-marginal-gain pick among non-excluded
// datasets (Algorithm 3's per-iteration body). Kept as the fallback and
// comparison protocol; the session path below answers the same question
// from accumulated per-session state.
func (s *SourceServer) handleCoverage(ctx context.Context, req CoverageRequest) CoverageCandidate {
	merged := dataset.NewNodeFromCells(-1, "merged", req.Merged)
	if merged == nil {
		return CoverageCandidate{}
	}
	var out CoverageCandidate
	s.view(func(idx *dits.Local) {
		cands := s.findConnectSet(ctx, idx, merged, req.Delta, cellset.NewDistIndex(req.Merged, req.Delta))
		// Exclude holds at most k IDs, so a scan beats building a set.
		best, bestGain := executor.PickBest(context.Background(), cands,
			func(id int) bool { return slices.Contains(req.Exclude, id) }, merged.CompactCells())
		if best == nil {
			return
		}
		out = CoverageCandidate{
			Found: true,
			ID:    best.ID,
			Name:  best.Name,
			Gain:  bestGain,
			Cells: best.FlatCells(),
		}
	})
	return out
}

// findConnectSet runs the connectivity walk on the source's executor. The
// caller holds the index's shared lock.
func (s *SourceServer) findConnectSet(ctx context.Context, idx *dits.Local, qn *dataset.Node, delta float64, qIdx *cellset.DistIndex) []*dataset.Node {
	_, sp := obs.StartSpan(ctx, "exec.connect")
	defer sp.End()
	return executor.FindConnectSet(ctx, idx.Root, qn, delta, qIdx)
}

// handleCoverageRound answers one session round: drop the sessions the
// request closes, update the session state from Base/Added, then offer the
// best candidate as (ID, Gain) with its guard.
func (s *SourceServer) handleCoverageRound(ctx context.Context, req CoverageRoundRequest) CoverageRoundResponse {
	s.mu.Lock()
	for _, id := range req.Close {
		delete(s.sessions, id)
	}
	now := s.clock()
	s.sweepLocked(now)
	sess := s.sessions[req.Session]
	stateless := false
	switch {
	case sess == nil && req.Base.IsEmpty():
		s.mu.Unlock()
		return CoverageRoundResponse{SessionMiss: true}
	case sess == nil:
		sess = &covSession{}
		if len(s.sessions) >= s.maxSessions() {
			// A table full of live sessions: answer from the request's
			// Base without storing — never evict another in-flight query's
			// state. The center falls back to full-state rounds for this
			// source until capacity frees up.
			stateless = true
		} else {
			if s.sessions == nil {
				s.sessions = make(map[uint64]*covSession)
			}
			s.sessions[req.Session] = sess
		}
	}
	sess.lastUsed = now
	s.mu.Unlock()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !req.Base.IsEmpty() {
		// A new session, or the center re-opening one after a miss:
		// replace whatever is held with the full state.
		sess.reset(req.Base, req.Delta, s.DataVersion())
	} else {
		sess.absorb(req.Added)
	}
	return CoverageRoundResponse{Stateless: stateless, Offer: s.offer(ctx, sess, req.Exclude)}
}

// offer brings the session's connected set up to date, picks its best
// dataset outside exclude and guards the pick (coverage.Guard). The caller
// holds sess.mu.
func (s *SourceServer) offer(ctx context.Context, sess *covSession, exclude []int) Offer {
	var out Offer
	if sess.pick.Merged().IsEmpty() {
		return out
	}
	s.view(func(idx *dits.Local) {
		// Under the index lock the data version cannot move, so the stamp
		// describes exactly the index the walk reads.
		err := sess.connect(s.DataVersion(), func(q *dataset.Node, qIdx *cellset.DistIndex, cs *coverage.ConnectSet) error {
			_, sp := obs.StartSpan(ctx, "exec.connect")
			executor.ExtendConnectSet(ctx, idx.Root, q, sess.delta, qIdx, cs)
			sp.End()
			return ctx.Err()
		})
		if err != nil {
			// The caller gave up; an answer that still arrives is void:
			// any cell voids it, and nothing bounds the next.
			out.Guard = []coverage.GuardSpan{{Span: cellset.Span{X1: math.MaxUint32, Y1: math.MaxUint32}, Ceil: math.MaxInt}}
			return
		}
		excluded := func(id int) bool { return slices.Contains(exclude, id) }
		best, bestGain := sess.pick.Pick(excluded)
		if best != nil {
			out = Offer{Found: true, ID: best.ID, Name: best.Name, Gain: bestGain}
		}
		out.Guard = coverage.Guard(idx.Root, best, bestGain, sess.delta, &sess.pick.Connected, excluded)
	})
	return out
}

// handleFetchCells ships the winning dataset's full cell set and folds the
// held-back delta and then it into the session, then answers the offer the
// session's next round would make — so the next round neither ships this
// source a delta nor asks it at all. A dataset's cells lie inside the
// source's root MBR, which is inside every clip region the center uses for
// this source, so the unclipped union is exactly what clipping would
// produce.
func (s *SourceServer) handleFetchCells(ctx context.Context, req FetchCellsRequest) FetchCellsResponse {
	// Dataset nodes are immutable once published (mutations replace the
	// node object), so the cells stay valid after the lock is released.
	var nd *dataset.Node
	s.view(func(idx *dits.Local) { nd = idx.Get(req.ID) })
	if nd == nil {
		return FetchCellsResponse{}
	}
	cells := nd.CompactCells()
	resp := FetchCellsResponse{Found: true, Cells: cells}
	if req.Session == 0 {
		return resp
	}
	s.mu.Lock()
	s.sweepLocked(s.clock())
	sess := s.sessions[req.Session]
	if sess != nil {
		sess.lastUsed = s.clock()
	}
	s.mu.Unlock()
	if sess != nil {
		sess.mu.Lock()
		sess.absorb(req.Added)
		sess.absorb(cells)
		resp.Committed, resp.Next = true, s.offer(ctx, sess, req.Exclude)
		sess.mu.Unlock()
	}
	return resp
}

// clock returns the current time; the caller holds s.mu.
func (s *SourceServer) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

// maxSessions returns the session-table capacity.
func (s *SourceServer) maxSessions() int {
	if s.MaxSessions > 0 {
		return s.MaxSessions
	}
	return DefaultMaxSessions
}

// sweepLocked reclaims sessions idle past the TTL. It runs on every
// session-table access (rounds, fetches, stats), so a crashed center's
// stranded sessions are reclaimed by whatever traffic arrives next. The
// caller holds s.mu.
func (s *SourceServer) sweepLocked(now time.Time) {
	ttl := s.SessionTTL
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	for id, sess := range s.sessions {
		if now.Sub(sess.lastUsed) > ttl {
			delete(s.sessions, id)
		}
	}
}

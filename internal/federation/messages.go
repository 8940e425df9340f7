// Package federation implements the multi-source joinable search framework
// of §IV and §VI-A: autonomous source servers each holding a DITS-L index,
// and a data center holding the DITS-G global index, distributing queries
// to candidate sources only and shipping only the clipped portion of the
// query each source can possibly match.
//
// # Concurrency and ownership
//
// A Center is safe for unrestricted concurrent use. Membership lives in
// an immutable epoch snapshot behind an atomic pointer: a query loads it
// once and owns that consistent view — member set, DITS-G, generation —
// for its whole lifetime, while Register/Unregister build and publish the
// next snapshot under the center's mutex. Nothing a query reads from a
// snapshot may be mutated, ever; membership changes copy.
//
// A SourceServer is safe for concurrent use: its index is immutable
// after construction (the DITS-L read contract), its handler may run on
// any number of transport connections at once, and each request runs its
// search (search/exec) on the handler's goroutine. The only mutable
// source state is the coverage-session table, guarded by the server's
// mutex; one session is driven by one center query at a time (rounds are
// sequential by protocol), while distinct sessions proceed concurrently.
// Peers registered with a center must tolerate concurrent Call — wrap
// TCP connections in a transport.Pool; each fan-out goroutine drives one
// peer exchange at a time, and one CJSP never calls a source from two
// goroutines at once, but concurrent queries do.
package federation

import (
	"dits/internal/cellset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
)

// Method names of the source-server protocol.
const (
	MethodOverlap  = "overlap.search"
	MethodCoverage = "coverage.best"
	MethodSummary  = "source.summary"

	// Session protocol (CJSP). One coverage query opens one session per
	// contacted source; rounds ship only the delta since the previous
	// round, and only the winning source ships cells back (two-phase). A
	// session ends at the next round its center sends the source, which
	// carries it in Close, or by the source's TTL.
	MethodCoverageRound = "coverage.round"
	MethodFetchCells    = "coverage.fetch"

	// MethodSearchBatch ships a whole batch of OJSP queries in ONE
	// request/response exchange: the source answers every query of the
	// batch in a single pass over its DITS-L tree (search/exec), and the
	// center pays one round trip per source per batch instead of one per
	// query per source.
	MethodSearchBatch = "search.batch"

	// Ingestion protocol. A source backed by a durable store
	// (internal/ingest) accepts dataset mutations: each is WAL-logged
	// before it touches the live index, serialized against in-flight
	// searches, and bumps the source's monotonic data version. A source
	// without a store rejects both mutation methods as read-only.
	MethodDatasetPut    = "dataset.put"
	MethodDatasetDelete = "dataset.delete"
	// MethodSourceVersion reports the source's current data version, so a
	// center can audit its cached version vector against the source.
	MethodSourceVersion = "source.version"

	// MethodWALShip ships the WAL tail of a durable source to a catching-up
	// replica: the request carries the replica's data version and the
	// response the raw WAL frames beyond it (see ingest.ShipWAL). Replicas
	// poll it; a caught-up replica gets an empty batch.
	MethodWALShip = "wal.ship"
)

// Method names of the cluster protocol — the surface a CenterServer
// exposes to the gateway.
const (
	// MethodClusterInfo is the health probe and shard audit: it reports the
	// center's name, membership generation, and every registered source's
	// root summary and data version.
	MethodClusterInfo = "cluster.info"
	// MethodClusterRegister tells a center to adopt a source: the center
	// dials the source (and its replicas), fetches its summary, and
	// registers it — appending the event to its membership log first, so a
	// restarted center re-joins with the same shard. It answers the root
	// summary the center fetched, which the gateway enters into its DITS-G.
	MethodClusterRegister = "cluster.register"
	// MethodClusterForward relays source calls — every query's and every
	// mutation's — to sources of the center's shard: the gateway runs the
	// query engine, the center owns the connections.
	MethodClusterForward = "cluster.forward"
)

// WALShipRequest asks a durable source for the WAL tail beyond the
// replica's data version.
type WALShipRequest struct {
	After uint64
}

// WALShipResponse carries raw WAL frames (ingest framing, possibly soft-
// capped — the replica pulls again until it reaches Version). TooOld
// reports that After precedes the source's newest snapshot, so the records
// were compacted away and the replica must be reseeded.
type WALShipResponse struct {
	Frames  []byte
	Version uint64
	TooOld  bool
}

// ClusterInfoResponse answers the gateway's health probe. Shard carries
// the center's current (summary, data version) per source, which the
// gateway folds into its DITS-G exactly like a mutation acknowledgement —
// the repair path for an acknowledgement that was lost on the way back.
type ClusterInfoResponse struct {
	Name       string
	Generation uint64
	Shard      []ShardSource // registered sources, name-sorted
}

// ShardSource is one source as its owner center sees it.
type ShardSource struct {
	Summary dits.SourceSummary
	Version uint64 // at adoption, or of the last mutation relayed since
}

// ClusterRegisterRequest tells a center to dial and register one source.
// Replicas, in failover order, serve reads when the primary's transport
// fails; mutations and WAL shipping always pin to the primary. Grid is the
// federation's: the center refuses a source gridded otherwise before it
// adopts or logs it (the zero grid checks nothing).
type ClusterRegisterRequest struct {
	Name     string
	Addr     string
	Replicas []string
	Grid     geo.Grid
}

// ForwardCall is one relayed source exchange: the source it is for, the
// source method (one of relayMethods; it travels as a one-byte code) and
// the request encoded by BinaryCodec, which the center passes to the
// source as it came.
type ForwardCall struct {
	Source string
	Method string
	Body   []byte
}

// ClusterForwardRequest relays a fan-out's calls for one center's shard.
// Its bodies travel as one copy/literal op stream (see appendOps).
type ClusterForwardRequest struct {
	Calls []ForwardCall
}

// ForwardReply answers one ForwardCall: the BinaryCodec-encoded response
// as the source sent it, or the error text. Transport is set when the
// source's connection failed (rather than its handler answering with an
// error) — either way it is that source's error, not the center's.
type ForwardReply struct {
	Body      []byte
	Err       string
	Transport bool
}

// ClusterForwardResponse carries one reply per call, in request order.
type ClusterForwardResponse struct {
	Replies []ForwardReply
}

// OverlapRequest asks a source for its local top-k overlap results. Cells
// is the query's cell-based set, possibly clipped to the portion
// intersecting the source's root MBR (§VI-A, second strategy).
type OverlapRequest struct {
	Cells cellset.Set
	K     int
}

// OverlapItem is one local result.
type OverlapItem struct {
	ID      int
	Name    string
	Overlap int
}

// OverlapResponse carries a source's local top-k.
type OverlapResponse struct {
	Results []OverlapItem
}

// SearchBatchRequest asks a source for the local top-k of every query in
// a batch. Each entry is a complete OverlapRequest — its own (possibly
// clipped) cell set and its own k — so one source's batch may cover only
// the subset of the center's batch for which this source is a candidate.
// An entry with empty Cells or k <= 0 is answered with an empty result,
// keeping request and response aligned index-for-index.
type SearchBatchRequest struct {
	Queries []OverlapRequest
}

// SearchBatchResponse carries one OverlapResponse per request entry, in
// request order. len(Results) always equals len(Queries) of the request.
type SearchBatchResponse struct {
	Results []OverlapResponse
}

// CoverageRequest asks a source for its best next dataset in one greedy
// iteration of the multi-source CJSP: the dataset directly connected to the
// merged result set with the maximum marginal gain. Merged is the union of
// the query's and all picked datasets' cells, clipped to the source's
// δ-expanded root MBR — the clipped set yields exactly the same gains and
// connectivity decisions for datasets inside the source (their cells cannot
// meet clipped-away cells within δ).
type CoverageRequest struct {
	Merged  cellset.Set
	Delta   float64
	Exclude []int // dataset IDs already picked from this source
}

// CoverageCandidate is a source's best next pick; Found is false when the
// source has no remaining connected dataset with positive cells.
type CoverageCandidate struct {
	Found bool
	ID    int
	Name  string
	Gain  int
	Cells cellset.Set // full cell set, needed by the center to merge
}

// CoverageRoundRequest is one greedy CJSP round against a per-query
// session. The first contact (or a stateless fallback after the source
// evicted the session) carries Base — the full merged state clipped to the
// source's δ-expanded region. Subsequent rounds ship only Added, the
// winners' cells clipped the same way since the source last answered; the
// source unions them into its session state. The union of the clipped
// pieces equals the clip of the union (clipping is a fixed per-cell
// predicate), so every round the source sees exactly the state the
// stateless protocol would have shipped whole. Close lists sessions of this
// center's queries that have ended: the source drops them before anything
// else.
type CoverageRoundRequest struct {
	Session uint64           // center-chosen session ID, shared by all rounds of one query
	Base    *cellset.Compact // full clipped merged state; nil on delta rounds
	Added   *cellset.Compact // clipped winner cells since the source last answered; may be nil
	Delta   float64          // connectivity threshold δ (cell units)
	Exclude []int            // dataset IDs already picked from this source
	Close   []uint64         // ended sessions to drop first
}

// Offer is a source's best next pick for its session's current state,
// (ID, Gain) only; Found is false when no connected dataset is left. Cells
// added with none in Guard leave the offer exact; cells that meet some of
// its spans leave the next offer's gain at most the larger of Gain and
// those spans' ceilings (coverage.Guard). An answer the source voided has
// one span over every cell, with an unbounded ceiling.
type Offer struct {
	Found bool
	ID    int
	Name  string
	Gain  int
	Guard []coverage.GuardSpan
}

// CoverageRoundResponse is a source's offer for one round: only (ID, Gain)
// — the cells stay at the source until the center declares this offer the
// round's winner and fetches them (losers never ship cell sets).
// SessionMiss reports that the source no longer holds the session and the
// request carried no Base; the center retries with the full state.
// Stateless reports that the source answered from the request's Base
// without storing a session (its table is full of live sessions); the
// center then ships the full state again next round instead of a delta —
// graceful degradation to the stateless protocol, never eviction of
// another in-flight query's session.
type CoverageRoundResponse struct {
	SessionMiss bool
	Stateless   bool
	Offer
}

// FetchCellsRequest is the second phase of a round: fetch the winning
// dataset's full cell set. When Session is non-zero and still live at the
// source, the source also folds Added — the clipped cells the center held
// back while its cached offer stood — and then the winner's cells into its
// session state, and answers, in the same exchange, the offer its next
// round would make: Exclude is the source's exclusion list with ID already
// appended. Session is 0 when the source answered its round without
// storing the session. The query's k-th pick is never fetched: its cells
// would serve only the coverage, which is the prior coverage plus its gain.
type FetchCellsRequest struct {
	Session uint64
	ID      int
	Exclude []int
	Added   *cellset.Compact
}

// FetchCellsResponse carries the winner's full cell set. Committed reports
// whether the source folded the cells into the session; when false (the
// session was evicted between round and fetch) the center re-opens the
// session with the full state on the next round. Next, valid only when
// Committed, is the source's offer against its new state — the center
// caches it instead of asking the source again next round.
type FetchCellsResponse struct {
	Found     bool
	Committed bool
	Cells     *cellset.Compact
	Next      Offer
}

// DatasetPutRequest durably upserts one dataset at a source: insert when
// the ID is new, replace in place when it exists. Cells must be gridded
// under the federation's shared grid, like query cells.
type DatasetPutRequest struct {
	ID    int
	Name  string
	Cells cellset.Set
}

// DatasetDeleteRequest durably removes one dataset by ID.
type DatasetDeleteRequest struct {
	ID int
}

// MutateResponse answers both mutation methods. Version is the source's
// data version after the mutation (monotonic, persisted across restarts).
// Summary is the source's post-mutation root summary: the center builds a
// new epoch's DITS-G with it whenever a mutation grew or shrank the
// source's extent, so global candidate filtering never prunes a source
// whose new data now reaches a query. Found is false only for a delete of
// an ID the source does not hold (which mutates nothing).
type MutateResponse struct {
	Found       bool
	Version     uint64
	NumDatasets int
	Summary     dits.SourceSummary
}

// VersionRequest asks a source for its current data version.
type VersionRequest struct{}

// VersionResponse reports the source's data version and whether the
// source is backed by a durable (WAL) store.
type VersionResponse struct {
	Name    string
	Version uint64
	Durable bool
}

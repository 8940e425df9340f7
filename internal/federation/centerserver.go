package federation

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"dits/internal/index/dits"
	"dits/internal/transport"
)

// CenterServer is one center of the cluster plane (ditscenter): it holds
// its shard's source connections and relays the gateway's calls over them
// (cluster.forward), and persists every accepted registration in a
// membership log so a restarted center re-adopts its shard without operator
// involvement. It runs no query of its own: the gateway prunes, clips,
// applies the failure policy and merges for every query class.
//
// The server is safe for concurrent use: membership RPCs serialize under
// its mutex (and through it, log appends), while relayed calls go straight
// to the roster's lock-free epoch snapshots.
type CenterServer struct {
	name string
	// center is the shard's roster: each source's connection, root summary
	// and last relayed data version (what cluster.info reports), and the
	// metrics of the source pools.
	center *Center
	dial   func(addr string) (transport.Peer, error)

	mu      sync.Mutex
	log     *MemberLog // nil when the server runs without durability
	peers   map[string]transport.Peer
	skipped []string // logged members that could not be re-dialed at boot
}

// CenterServerOptions configure a CenterServer.
type CenterServerOptions struct {
	// MemberLog is the membership log path; empty runs without durability
	// (a restarted center then waits for the gateway to re-register its
	// shard).
	MemberLog string
	// Fsync flushes every membership append to disk before acknowledging.
	Fsync bool
	// Dial opens a connection to a source address. Nil defaults to a TCP
	// pool of PoolSize connections; tests inject in-process peers.
	Dial func(addr string) (transport.Peer, error)
	// PoolSize sizes the default TCP pool per source endpoint (0 = 4).
	PoolSize int
}

// NewCenterServer serves the cluster protocol with center as the shard's
// roster (its Metrics observe the source pools the default dialer opens;
// its Options and cache go unused). With a membership
// log, the logged roster is replayed and re-registered immediately: a
// member whose source cannot be reached right now is skipped (and listed
// by Skipped) rather than failing the boot — the gateway's health plane
// re-registers it when it reconciles.
func NewCenterServer(name string, center *Center, opts CenterServerOptions) (*CenterServer, error) {
	dial := opts.Dial
	if dial == nil {
		size := opts.PoolSize
		if size <= 0 {
			size = 4
		}
		dial = func(addr string) (transport.Peer, error) {
			return transport.DialPool(addr, addr, size, center.Metrics), nil
		}
	}
	cs := &CenterServer{
		name:   name,
		center: center,
		dial:   dial,
		peers:  make(map[string]transport.Peer),
	}
	if opts.MemberLog != "" {
		log, events, err := OpenMemberLog(opts.MemberLog, opts.Fsync)
		if err != nil {
			return nil, err
		}
		cs.log = log
		live := FoldMembers(events)
		names := make([]string, 0, len(live))
		for name := range live {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			if _, err := cs.adopt(context.Background(), live[name]); err != nil {
				cs.skipped = append(cs.skipped, name)
			}
		}
	}
	return cs, nil
}

// Name returns the center's cluster name.
func (cs *CenterServer) Name() string { return cs.name }

// Center returns the roster center.
func (cs *CenterServer) Center() *Center { return cs.center }

// Skipped returns the names of logged members that could not be re-dialed
// at boot, sorted.
func (cs *CenterServer) Skipped() []string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return slices.Clone(cs.skipped)
}

// connect dials a member's primary and replicas. Dial failures against
// replicas are tolerated (the primary still serves); a failed primary dial
// fails the connect.
func (cs *CenterServer) connect(ev MemberEvent) (transport.Peer, error) {
	primary, err := cs.dial(ev.Addr)
	if err != nil {
		return nil, fmt.Errorf("federation: dial source %s at %s: %w", ev.Name, ev.Addr, err)
	}
	peers := []transport.Peer{primary}
	for _, addr := range ev.Replicas {
		p, err := cs.dial(addr)
		if err != nil {
			continue
		}
		peers = append(peers, p)
	}
	if len(peers) == 1 && len(ev.Replicas) == 0 {
		return primary, nil
	}
	return NewReplicatedPeer(ev.Name, peers...), nil
}

// adopt connects and registers one member, replacing any previous
// registration under the same name, records it in the in-memory roster and
// returns the summary the source reported. The caller appends to the
// membership log (adopt is also the boot-replay path, which must not
// re-append). Callers serialize via cs.mu except during construction.
//
// The roster is seeded with the source's data version, asked before its
// summary so the summary is at least that new: a center adopting a source
// on failover then reports a version the gateway has not seen yet, and
// cluster.info repairs an acknowledgement its previous owner lost.
func (cs *CenterServer) adopt(ctx context.Context, ev MemberEvent) (dits.SourceSummary, error) {
	peer, err := cs.connect(ev)
	if err != nil {
		return dits.SourceSummary{}, err
	}
	var ver VersionResponse
	if err := peer.Call(ctx, MethodSourceVersion, nil, &ver); err != nil {
		peer.Close()
		return dits.SourceSummary{}, fmt.Errorf("federation: fetch version: %w", err)
	}
	summary, err := cs.center.RegisterRemote(ctx, peer)
	if err != nil {
		peer.Close()
		return summary, err
	}
	if summary.Name != ev.Name {
		cs.center.Unregister(summary.Name)
		peer.Close()
		return summary, fmt.Errorf("federation: source at %s calls itself %q, registered as %q", ev.Addr, summary.Name, ev.Name)
	}
	cs.center.noteMutation(cs.center.epoch.Load(), ev.Name, MutateResponse{Version: ver.Version, Summary: summary})
	if old, ok := cs.peers[ev.Name]; ok {
		old.Close()
	}
	cs.peers[ev.Name] = peer
	return summary, nil
}

// handleRegister adopts a source and logs the join before acknowledging
// with the source's summary.
func (cs *CenterServer) handleRegister(ctx context.Context, req ClusterRegisterRequest) (dits.SourceSummary, error) {
	if req.Name == "" || req.Addr == "" {
		return dits.SourceSummary{}, fmt.Errorf("federation: cluster.register needs a source name and address")
	}
	ev := MemberEvent{Op: MemberJoin, Name: req.Name, Addr: req.Addr, Replicas: slices.Clone(req.Replicas)}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	summary, err := cs.adopt(ctx, ev)
	if err == nil && cs.log != nil {
		err = cs.log.Append(ev)
	}
	return summary, err
}

// forwardTypes returns fresh request and response values for a method the
// relay accepts — every source method a query or mutation sends — and nil
// for any other.
func forwardTypes(method string) (req, resp any) {
	switch method {
	case MethodOverlap:
		return new(OverlapRequest), new(OverlapResponse)
	case MethodSearchBatch:
		return new(SearchBatchRequest), new(SearchBatchResponse)
	case MethodCoverageRound:
		return new(CoverageRoundRequest), new(CoverageRoundResponse)
	case MethodFetchCells:
		return new(FetchCellsRequest), new(FetchCellsResponse)
	case MethodSessionClose:
		return new(SessionCloseRequest), new(SessionCloseResponse)
	case MethodDatasetPut:
		return new(DatasetPutRequest), new(MutateResponse)
	case MethodDatasetDelete:
		return new(DatasetDeleteRequest), new(MutateResponse)
	}
	return nil, nil
}

// handleForward relays each call to its source over the shard's own
// connection, concurrently, and answers in call order.
func (cs *CenterServer) handleForward(ctx context.Context, req ClusterForwardRequest) ClusterForwardResponse {
	replies, _ := fanOut(req.Calls, func(call ForwardCall) (ForwardReply, error) {
		return cs.forwardOne(ctx, call), nil
	})
	return ClusterForwardResponse{Replies: replies}
}

// forwardOne performs one relayed call. Whatever goes wrong is that call's
// reply, never the handler's error: it is the source's failure, for the
// gateway's per-source policy, and must not look like a dead center. A
// relayed mutation's answer is noted into the roster, so cluster.info
// reports it even if the reply is lost on the way back to the gateway.
func (cs *CenterServer) forwardOne(ctx context.Context, call ForwardCall) ForwardReply {
	req, resp := forwardTypes(call.Method)
	if req == nil {
		return ForwardReply{Err: fmt.Sprintf("federation: cluster.forward does not relay %q", call.Method)}
	}
	ep := cs.center.epoch.Load()
	m, ok := ep.members[call.Source]
	if !ok {
		return ForwardReply{Err: fmt.Sprintf("%v: %q", ErrUnknownSource, call.Source)}
	}
	if err := BinaryCodec.Decode(call.Body, req); err != nil {
		return ForwardReply{Err: err.Error()}
	}
	if err := m.peer.Call(ctx, call.Method, req, resp); err != nil {
		var re *transport.RemoteError
		if errors.As(err, &re) {
			return ForwardReply{Err: re.Msg}
		}
		return ForwardReply{Err: err.Error(), Transport: true}
	}
	if mr, ok := resp.(*MutateResponse); ok && (call.Method == MethodDatasetPut || mr.Found) {
		cs.center.noteMutation(ep, call.Source, *mr)
	}
	body, _ := BinaryCodec.Append(nil, resp) // native encodings cannot fail
	return ForwardReply{Body: body}
}

// serve decodes a request of type Req and answers it with fn — the shape of
// every handler case, here and at the sources.
func serve[Req, Resp any](codec transport.Codec, body []byte, fn func(Req) (Resp, error)) (any, error) {
	var req Req
	if err := codec.Decode(body, &req); err != nil {
		return nil, err
	}
	resp, err := fn(req)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Handler returns the transport.Handler serving the cluster protocol.
func (cs *CenterServer) Handler() transport.Handler {
	return func(ctx context.Context, codec transport.Codec, method string, body []byte) (any, error) {
		switch method {
		case MethodClusterInfo:
			return &ClusterInfoResponse{Name: cs.name, Generation: cs.center.Generation(), Shard: cs.center.Shard()}, nil
		case MethodClusterRegister:
			return serve(codec, body, func(req ClusterRegisterRequest) (dits.SourceSummary, error) {
				return cs.handleRegister(ctx, req)
			})
		case MethodClusterForward:
			return serve(codec, body, func(req ClusterForwardRequest) (ClusterForwardResponse, error) {
				return cs.handleForward(ctx, req), nil
			})
		default:
			return nil, fmt.Errorf("federation: unknown method %q", method)
		}
	}
}

// Close releases the membership log and every source connection.
func (cs *CenterServer) Close() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for name, p := range cs.peers {
		p.Close()
		delete(cs.peers, name)
	}
	if cs.log != nil {
		return cs.log.Close()
	}
	return nil
}

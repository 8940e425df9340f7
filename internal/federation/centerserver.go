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

// CenterServer exposes one Center to the cluster plane: it serves the
// cluster.* protocol (ditscenter), dials sources on the gateway's behalf,
// and persists every accepted Register/Unregister in a membership log so a
// restarted center re-adopts its shard without operator involvement.
//
// The server is safe for concurrent use: membership RPCs serialize under
// its mutex (and through it, log appends), while query RPCs go straight to
// the Center's lock-free epoch snapshots.
type CenterServer struct {
	name   string
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

// NewCenterServer wraps a center for cluster serving. With a membership
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

// Center returns the wrapped center.
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
func (cs *CenterServer) adopt(ctx context.Context, ev MemberEvent) (dits.SourceSummary, error) {
	peer, err := cs.connect(ev)
	if err != nil {
		return dits.SourceSummary{}, err
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

// handleUnregister removes a source and logs the leave.
func (cs *CenterServer) handleUnregister(req ClusterUnregisterRequest) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if peer, ok := cs.peers[req.Name]; ok {
		cs.center.Unregister(req.Name)
		peer.Close()
		delete(cs.peers, req.Name)
		if cs.log != nil {
			return cs.log.Append(MemberEvent{Op: MemberLeave, Name: req.Name})
		}
	}
	return nil
}

// forwardTypes returns fresh request and response values for a method the
// relay accepts — the session protocol's three — and nil for any other.
func forwardTypes(method string) (req, resp any) {
	switch method {
	case MethodCoverageRound:
		return new(CoverageRoundRequest), new(CoverageRoundResponse)
	case MethodFetchCells:
		return new(FetchCellsRequest), new(FetchCellsResponse)
	case MethodSessionClose:
		return new(SessionCloseRequest), new(SessionCloseResponse)
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
// gateway's per-source policy, and must not look like a dead center.
func (cs *CenterServer) forwardOne(ctx context.Context, call ForwardCall) ForwardReply {
	req, resp := forwardTypes(call.Method)
	if req == nil {
		return ForwardReply{Err: fmt.Sprintf("federation: cluster.forward does not relay %q", call.Method)}
	}
	m, ok := cs.center.epoch.Load().members[call.Source]
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
	body, _ := BinaryCodec.Append(nil, resp) // native encodings cannot fail
	return ForwardReply{Body: body}
}

// mutateResponse maps a center mutation outcome onto the cluster wire,
// folding ErrUnknownSource into the Unknown flag so the gateway can
// distinguish a roster disagreement from a transport failure.
func mutateResponse(res MutateResult, err error) (ClusterMutateResponse, error) {
	if err != nil {
		if errors.Is(err, ErrUnknownSource) {
			return ClusterMutateResponse{Unknown: true}, nil
		}
		return ClusterMutateResponse{}, err
	}
	return ClusterMutateResponse{MutateResponse: res.MutateResponse}, nil
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
		case MethodClusterUnregister:
			var req ClusterUnregisterRequest
			if err := codec.Decode(body, &req); err != nil {
				return nil, err
			}
			return nil, cs.handleUnregister(req)
		case MethodClusterOverlap:
			return serve(codec, body, func(req OverlapRequest) (ClusterOverlapResponse, error) {
				rs, err := cs.center.OverlapSearch(ctx, req.Cells, req.K)
				return ClusterOverlapResponse{Results: rs}, err
			})
		case MethodClusterBatch:
			return serve(codec, body, func(req SearchBatchRequest) (ClusterBatchResponse, error) {
				outs, err := cs.center.OverlapSearchBatch(ctx, req.Queries)
				return ClusterBatchResponse{Results: outs}, err
			})
		case MethodClusterForward:
			return serve(codec, body, func(req ClusterForwardRequest) (ClusterForwardResponse, error) {
				return cs.handleForward(ctx, req), nil
			})
		case MethodClusterPut:
			return serve(codec, body, func(req ClusterPutRequest) (ClusterMutateResponse, error) {
				return mutateResponse(cs.center.PutDataset(ctx, req.Source, req.ID, req.Name, req.Cells))
			})
		case MethodClusterDelete:
			return serve(codec, body, func(req ClusterDeleteRequest) (ClusterMutateResponse, error) {
				return mutateResponse(cs.center.DeleteDataset(ctx, req.Source, req.ID))
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

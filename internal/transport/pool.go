package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"dits/internal/obs"
)

// ErrPoolClosed is returned by Pool.Call after the pool has been closed.
var ErrPoolClosed = errors.New("transport: pool closed")

// Pool is a Peer that multiplexes concurrent Calls over up to size
// underlying connections to the same source. TCPPeer is only safe for
// sequential use; a Pool lets many goroutines — one per in-flight query at
// the data center — share one logical peer without external locking:
//
//	pool := transport.DialPool(name, addr, 8, metrics)
//	center.RegisterRemote(pool)
//
// Connections are created lazily on demand, reused via an idle list, and
// checked back in after every call. Checkin is health-aware: a call that
// fails with a *RemoteError rode a perfectly good connection (the source's
// handler rejected the request), so the connection is kept; any other
// failure means the connection itself broke, so it is discarded and the
// next call dials afresh. A call that fails on a connection taken from the
// idle list (which may have gone stale while parked) is retried once on a
// freshly dialed connection before the error is reported.
type Pool struct {
	name string
	dial func() (Peer, error)

	sem chan struct{} // capacity tokens: at most cap(sem) connections exist

	mu     sync.Mutex
	idle   []Peer
	closed bool

	dials    atomic.Int64
	discards atomic.Int64
}

// NewPool creates a pool of up to size connections produced by dial.
// Size values below 1 are treated as 1 (a pool of one serializes callers,
// which is exactly the old one-connection-per-source behavior, made safe).
func NewPool(name string, size int, dial func() (Peer, error)) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{
		name: name,
		dial: dial,
		sem:  make(chan struct{}, size),
	}
}

// DialPool creates a pool of up to size TCP connections to a source server
// at addr, all recording into the same Metrics.
func DialPool(name, addr string, size int, metrics *Metrics) *Pool {
	return NewPool(name, size, func() (Peer, error) {
		return Dial(name, addr, metrics)
	})
}

// Name returns the pool's source name.
func (p *Pool) Name() string { return p.name }

// PoolStats is a snapshot of a pool's connection accounting.
type PoolStats struct {
	Size     int   // maximum connections
	Idle     int   // healthy parked connections
	InUse    int   // connections currently serving a call
	Dials    int64 // total connections ever dialed
	Discards int64 // connections discarded as broken
}

// Stats returns a snapshot of the pool's connection accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	return PoolStats{
		Size:     cap(p.sem),
		Idle:     idle,
		InUse:    len(p.sem),
		Dials:    p.dials.Load(),
		Discards: p.discards.Load(),
	}
}

// get checks a connection out of the pool, blocking while all size
// connections are in use — but no longer than the caller's context allows,
// so a deadlined request queued behind a saturated pool gives up instead of
// waiting for capacity it can no longer use. fromIdle reports whether the
// connection was parked (and may therefore have gone stale).
func (p *Pool) get(ctx context.Context) (peer Peer, fromIdle bool, err error) {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.sem
		return nil, false, ErrPoolClosed
	}
	if n := len(p.idle); n > 0 {
		peer = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return peer, true, nil
	}
	p.mu.Unlock()
	peer, err = p.dial()
	if err != nil {
		<-p.sem
		return nil, false, err
	}
	p.dials.Add(1)
	return peer, false, nil
}

// put checks a connection back in. Unhealthy connections — and any
// connection returned after Close — are closed instead of parked.
func (p *Pool) put(peer Peer, healthy bool) {
	p.mu.Lock()
	if healthy && !p.closed {
		p.idle = append(p.idle, peer)
		peer = nil
	}
	p.mu.Unlock()
	if peer != nil {
		peer.Close()
		if !healthy {
			p.discards.Add(1)
		}
	}
	<-p.sem
}

// Call implements Peer. It is safe for concurrent use by any number of
// goroutines; at most Size calls are in flight at once and the rest queue.
func (p *Pool) Call(ctx context.Context, method string, req, resp any) error {
	peer, fromIdle, err := p.get(ctx)
	if err != nil {
		// No connection was ever checked out, so TCPPeer.Call never ran:
		// record the failed RPC here or a traced query that trips over a
		// dead peer at dial time would show no failed span at all.
		_, sp := obs.StartSpan(ctx, "rpc:"+method)
		sp.SetSource(p.name)
		sp.EndErr(err)
		return err
	}
	err = p.callOn(ctx, peer, method, req, resp)
	if err == nil || !fromIdle || isRemote(err) || ctx.Err() != nil {
		return err
	}
	// The parked connection had gone stale underneath us; the request never
	// reached the source, so retrying on a fresh connection is safe.
	peer, _, derr := p.getFresh()
	if derr != nil {
		return err // report the original failure
	}
	return p.callOn(ctx, peer, method, req, resp)
}

// callOn runs one call and checks the connection back in with the right
// health verdict. A call cut short by the context deadline may have left
// half a frame on the wire, so !isRemote errors (including deadline ones)
// discard the connection as usual.
func (p *Pool) callOn(ctx context.Context, peer Peer, method string, req, resp any) error {
	err := peer.Call(ctx, method, req, resp)
	p.put(peer, err == nil || isRemote(err))
	return err
}

// getFresh checks out a freshly dialed connection for the stale-connection
// retry. Parked siblings of a stale connection are suspect too, so one is
// evicted in its place, keeping the connection count within Size.
func (p *Pool) getFresh() (Peer, bool, error) {
	p.sem <- struct{}{}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.sem
		return nil, false, ErrPoolClosed
	}
	var evict Peer
	if n := len(p.idle); n > 0 {
		evict = p.idle[n-1]
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if evict != nil {
		evict.Close()
		p.discards.Add(1)
	}
	peer, err := p.dial()
	if err != nil {
		<-p.sem
		return nil, false, err
	}
	p.dials.Add(1)
	return peer, false, nil
}

// isRemote reports whether err is an application-level error from the
// source's handler, meaning the connection that carried it is healthy.
func isRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// Close implements Peer: it closes every idle connection and marks the pool
// closed. Connections currently serving a call are closed as they are
// checked back in; subsequent Calls fail with ErrPoolClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	var first error
	for _, peer := range idle {
		if err := peer.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

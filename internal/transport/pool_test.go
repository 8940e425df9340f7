package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRoundTrip(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := &Metrics{}
	pool := DialPool("s1", srv.Addr(), 4, m)
	defer pool.Close()

	if got := echo(t, pool, "m", "payload"); got != "m:payload" {
		t.Fatalf("resp = %q", got)
	}
	if m.Messages() != 1 {
		t.Errorf("Messages = %d, want 1", m.Messages())
	}
	st := pool.Stats()
	if st.Dials != 1 || st.Idle != 1 || st.InUse != 0 {
		t.Errorf("stats after one call = %+v", st)
	}
}

func TestPoolRemoteErrorKeepsConnection(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := DialPool("s1", srv.Addr(), 2, &Metrics{})
	defer pool.Close()

	if err := pool.Call(context.Background(), "fail", nil, nil); err == nil {
		t.Fatal("remote error not propagated")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "boom" {
			t.Fatalf("want RemoteError boom, got %v", err)
		}
	}
	// The connection that carried the handler error is healthy: it must be
	// parked, not discarded, and the next call must reuse it.
	if st := pool.Stats(); st.Idle != 1 || st.Discards != 0 {
		t.Fatalf("stats after remote error = %+v", st)
	}
	if got := echo(t, pool, "m", "x"); got != "m:x" {
		t.Fatalf("resp = %q", got)
	}
	if st := pool.Stats(); st.Dials != 1 {
		t.Fatalf("redialed a healthy connection: %+v", st)
	}
}

func TestPoolRetriesStaleIdleConnection(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	pool := DialPool("s1", addr, 2, &Metrics{})
	defer pool.Close()

	if got := echo(t, pool, "m", "a"); got != "m:a" {
		t.Fatalf("resp = %q", got)
	}
	// Kill the server underneath the parked connection, then restart on the
	// same address: the pool must notice the stale connection and retry.
	srv.Close()
	srv2, err := Serve(addr, echoHandler)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	if got := echo(t, pool, "m", "b"); got != "m:b" {
		t.Fatalf("stale connection not retried, resp = %q", got)
	}
	if st := pool.Stats(); st.Discards != 1 || st.Dials != 2 {
		t.Errorf("stats after retry = %+v", st)
	}
}

func TestPoolBoundsConnections(t *testing.T) {
	var inFlight, peak atomic.Int64
	srv, err := Serve("127.0.0.1:0", func(ctx context.Context, codec Codec, method string, body []byte) (any, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer inFlight.Add(-1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const size = 3
	pool := DialPool("s1", srv.Addr(), size, &Metrics{})
	defer pool.Close()

	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				payload := "x"
				if err := pool.Call(context.Background(), "m", &payload, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := pool.Stats(); st.Dials > size {
		t.Errorf("dialed %d connections, pool size %d", st.Dials, size)
	}
}

// TestPoolConcurrentCallsAndClose is the -race stress test: many goroutines
// calling while another closes the pool mid-flight.
func TestPoolConcurrentCallsAndClose(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := DialPool("s1", srv.Addr(), 4, &Metrics{})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				payload := fmt.Sprintf("%d-%d", c, i)
				var resp string
				err := pool.Call(context.Background(), "m", &payload, &resp)
				if err != nil {
					if errors.Is(err, ErrPoolClosed) {
						return // expected once Close lands
					}
					// Connection-level failures can surface while Close
					// tears down in-flight connections.
					return
				}
				if want := "m:" + payload; resp != want {
					t.Errorf("resp = %q, want %q", resp, want)
					return
				}
			}
		}(c)
	}
	close(start)
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool.Close()
	}()
	wg.Wait()
	if err := pool.Call(context.Background(), "m", nil, nil); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Call after Close = %v, want ErrPoolClosed", err)
	}
}

// TestPoolSaturatedRespectsDeadline: a caller queued behind a saturated pool
// must give up when its context expires instead of waiting for capacity.
func TestPoolSaturatedRespectsDeadline(t *testing.T) {
	release := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(ctx context.Context, codec Codec, method string, body []byte) (any, error) {
		if method == "block" {
			<-release
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := DialPool("s1", srv.Addr(), 1, &Metrics{})
	defer pool.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		pool.Call(context.Background(), "block", nil, nil) // occupies the only slot
	}()
	for wait := time.Now().Add(5 * time.Second); pool.Stats().InUse != 1; runtime.Gosched() {
		if time.Now().After(wait) {
			t.Fatal("the blocking call never took the pool's slot")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := pool.Call(ctx, "m", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated pool call = %v, want DeadlineExceeded", err)
	}
	close(release)
	<-done
}

func TestPoolSizeFloor(t *testing.T) {
	pool := NewPool("s", 0, func() (Peer, error) { return nil, errors.New("no dial") })
	defer pool.Close()
	if n := cap(pool.sem); n != 1 {
		t.Errorf("pool size = %d, want 1", n)
	}
	if err := pool.Call(context.Background(), "m", nil, nil); err == nil {
		t.Error("dial failure not propagated")
	}
}

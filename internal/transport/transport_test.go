package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dits/internal/metrics"
)

// echoHandler answers method+":"+request for string requests; the method
// "fail" answers a handler error.
func echoHandler(ctx context.Context, codec Codec, method string, body []byte) (any, error) {
	if method == "fail" {
		return nil, errors.New("boom")
	}
	var s string
	if len(body) > 0 {
		if err := codec.Decode(body, &s); err != nil {
			return nil, err
		}
	}
	out := method + ":" + s
	return &out, nil
}

// echo round-trips one string call through a peer.
func echo(t *testing.T, p Peer, method, payload string) string {
	t.Helper()
	var resp string
	if err := p.Call(context.Background(), method, &payload, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestInProcCountsBytes(t *testing.T) {
	m := &Metrics{}
	p := &InProc{Name: "s1", Handler: echoHandler, Metrics: m}
	if got := echo(t, p, "hello", "world"); got != "hello:world" {
		t.Fatalf("resp = %q", got)
	}
	if m.Messages() != 1 {
		t.Errorf("Messages = %d, want 1", m.Messages())
	}
	world, hello := "world", "hello:world"
	reqBytes, _ := gobCodec{}.Append(nil, &world)
	if m.BytesSent() != int64(len(reqBytes)+len("hello")) {
		t.Errorf("BytesSent = %d", m.BytesSent())
	}
	respBytes, _ := gobCodec{}.Append(nil, &hello)
	if m.BytesReceived() != int64(len(respBytes)) {
		t.Errorf("BytesReceived = %d", m.BytesReceived())
	}
	if err := p.Call(context.Background(), "fail", nil, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error not propagated: %v", err)
	}
	// Errors do not count as delivered traffic.
	if m.Messages() != 1 {
		t.Errorf("failed call counted: %d", m.Messages())
	}
	p.Close()
}

func TestInProcHonorsCancelledContext(t *testing.T) {
	p := &InProc{Name: "s1", Handler: echoHandler, Metrics: &Metrics{}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Call(ctx, "m", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Call on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestMetricsTransmissionTime(t *testing.T) {
	m := &Metrics{}
	m.Record("test.method", 600, 400) // 1000 bytes total
	if got := m.TransmissionTime(1000); got != time.Second {
		t.Errorf("TransmissionTime = %v, want 1s", got)
	}
	if got := m.TransmissionTime(0); got != 0 {
		t.Errorf("zero bandwidth should yield 0, got %v", got)
	}
	pm := m.PerMethod()
	if ms := pm["test.method"]; ms.Calls != 1 || ms.BytesSent != 600 || ms.BytesReceived != 400 {
		t.Errorf("per-method stats = %+v", ms)
	}
	m.RecordFailure("src-a")
	m.RecordFailure("src-a")
	if m.TotalFailures() != 2 || m.Failures()["src-a"] != 2 {
		t.Errorf("failures = %d %v", m.TotalFailures(), m.Failures())
	}
	m.Reset()
	if m.Bytes() != 0 || m.Messages() != 0 || len(m.PerMethod()) != 0 || m.TotalFailures() != 0 {
		t.Error("Reset did not zero counters")
	}
	var nilM *Metrics
	nilM.Record("x", 1, 1)  // must not panic
	nilM.RecordFailure("x") // must not panic
}

func TestMetricsRegisterExposes(t *testing.T) {
	m := &Metrics{}
	m.Record("overlap.search", 100, 50)
	m.RecordFailure("src-b")
	r := metrics.NewRegistry()
	m.Register(r)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"dits_transport_messages_total 1",
		"dits_transport_sent_bytes_total 100",
		`dits_transport_method_calls_total{method="overlap.search"} 1`,
		`dits_transport_source_failures_total{source="src-b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := &Metrics{}
	peer, err := Dial("s1", srv.Addr(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	for i := 0; i < 10; i++ {
		if got := echo(t, peer, "m", "payload"); got != "m:payload" {
			t.Fatalf("resp = %q", got)
		}
	}
	if m.Messages() != 10 {
		t.Errorf("Messages = %d, want 10", m.Messages())
	}
	if err := peer.Call(context.Background(), "fail", nil, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("remote error not propagated: %v", err)
	}
	// A 1 MiB payload outgrows both ends' frame buffers, so it arrives
	// over several chunked reads, and round-trips intact.
	big := strings.Repeat("0123456789abcdef", 64<<10)
	if got := echo(t, peer, "m", big); got != "m:"+big {
		t.Fatalf("1 MiB payload mangled (len %d)", len(got))
	}
}

// TestTCPLegacyInterop: a legacy peer that refuses the hello (status 1, as
// a server without the handshake answers an unknown method) or answers it
// for another wire version fails the dial with an error naming the peer —
// never a silent downgrade to some other framing.
func TestTCPLegacyInterop(t *testing.T) {
	cases := []struct {
		name   string
		status byte
		reply  string
	}{
		{"legacy server", 1, "unknown method \"transport.hello\""},
		{"other version", 0, "gob gzip trace"},
		{"hello/2 server", 0, "dits-hello/2 trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				r := bufio.NewReader(conn)
				var deadline [8]byte
				if _, err := readFrameReuse(r, nil); err != nil {
					return
				}
				if _, err := io.ReadFull(r, deadline[:]); err != nil {
					return
				}
				if _, err := readFrameReuse(r, nil); err != nil {
					return
				}
				writeResponse(bufio.NewWriter(conn), tc.status, []byte(tc.reply))
			}()
			peer, err := Dial("legacy-src", ln.Addr().String(), &Metrics{})
			if err == nil {
				peer.Close()
				t.Fatal("dial succeeded against a peer that cannot speak " + helloMagic)
			}
			if !strings.Contains(err.Error(), "legacy-src") {
				t.Errorf("dial error does not name the peer: %v", err)
			}
			ln.Close()
			<-done
		})
	}
}

// TestTCPForeignHelloClosesConn: a dialer of another wire version, or one
// whose first request is not a hello, gets a status-1 refusal and then
// the connection closes, so whatever it sends next fails at once instead
// of call by call.
func TestTCPForeignHelloClosesConn(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cases := []struct {
		name, method, body string
	}{
		{"hello/1", MethodHello, "dits-hello/1 gob gzip,trace"},
		{"hello/2", MethodHello, "dits-hello/2 trace"},
		{"no hello", "m", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			w := bufio.NewWriter(conn)
			writeFrame(w, []byte(tc.method))
			w.Write(make([]byte, 8)) // no deadline
			writeFrame(w, []byte(tc.body))
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(conn)
			status, err := r.ReadByte()
			if err != nil || status != 1 {
				t.Fatalf("first reply status = %d, %v; want 1", status, err)
			}
			if _, err := readFrameReuse(r, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ReadByte(); err != io.EOF {
				t.Fatalf("after the refusal read = %v, want EOF", err)
			}
		})
	}
}

// TestReadFrameClaimedLengthAllocatesLittle: a header claiming MaxFrame
// followed by a few bytes allocates in step with the bytes that arrived,
// not with the claim.
func TestReadFrameClaimedLengthAllocatesLittle(t *testing.T) {
	in := bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, MaxFrame), make([]byte, 10)...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrameReuse(in, nil)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("reading 10 bytes of a frame claiming MaxFrame allocated %d bytes", d)
	}
}

// opensWithHello reports whether a client stream opens with a valid hello
// request, whatever deadline it carries.
func opensWithHello(in []byte) bool {
	method := append(binary.BigEndian.AppendUint32(nil, uint32(len(MethodHello))), MethodHello...)
	body := append(binary.BigEndian.AppendUint32(nil, uint32(len(helloMagic))), helloMagic...)
	return bytes.HasPrefix(in, method) && len(in) >= len(method)+8 &&
		bytes.HasPrefix(in[len(method)+8:], body)
}

// FuzzServeConn feeds arbitrary bytes to serveConn as a client stream. It
// must never panic, must return once the input ends, and must run the
// handler only after a valid hello exchange opens the stream.
func FuzzServeConn(f *testing.F) {
	// request frames one request; a nil trace frame leaves it out.
	request := func(method, body string, trace []byte) []byte {
		var b bytes.Buffer
		writeFrame(&b, []byte(method))
		b.Write(make([]byte, 8)) // no deadline
		writeFrame(&b, []byte(body))
		if trace != nil {
			writeFrame(&b, trace)
		}
		return b.Bytes()
	}
	hello := request(MethodHello, helloMagic, nil)
	f.Add(append(slices.Clip(hello), request("m", "", []byte{})...))
	f.Add(request(MethodHello, "dits-hello/2 trace", nil))
	f.Add(request("m", "", []byte{}))
	f.Add(hello[:len(hello)-3])
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame))
	f.Fuzz(func(t *testing.T, in []byte) {
		var ran atomic.Bool
		s := &Server{handler: func(ctx context.Context, codec Codec, method string, body []byte) (any, error) {
			ran.Store(true)
			return nil, nil
		}}
		client, server := net.Pipe()
		defer client.Close()
		go io.Copy(io.Discard, client)
		go func() {
			client.Write(in)
			client.Close()
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			s.serveConn(server)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn did not return after the input ended")
		}
		if ran.Load() && !opensWithHello(in) {
			t.Fatal("handler ran without a valid hello exchange")
		}
	})
}

// TestTCPDeadlinePropagates checks both halves of the deadline contract: the
// client call fails once the budget runs out, and the server-side handler's
// context expires (so the source abandons the work too).
func TestTCPDeadlinePropagates(t *testing.T) {
	handlerCtxExpired := make(chan bool, 1)
	srv, err := Serve("127.0.0.1:0", func(ctx context.Context, codec Codec, method string, body []byte) (any, error) {
		if _, ok := ctx.Deadline(); !ok {
			handlerCtxExpired <- false
			return nil, nil
		}
		select {
		case <-ctx.Done():
			handlerCtxExpired <- true
		case <-time.After(2 * time.Second):
			handlerCtxExpired <- false
		}
		// Reply well after the caller's deadline so the client-side failure
		// is deterministic, not a race against the in-flight response.
		time.Sleep(200 * time.Millisecond)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	peer, err := Dial("s1", srv.Addr(), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	payload := "x"
	if err := peer.Call(ctx, "m", &payload, nil); err == nil {
		t.Fatal("call past deadline should error")
	}
	select {
	case expired := <-handlerCtxExpired:
		if !expired {
			t.Fatal("handler context did not carry the caller's deadline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never observed the request")
	}

	// An already-expired context fails before touching the wire.
	expiredCtx, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := peer.Call(expiredCtx, "m", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx = %v, want DeadlineExceeded", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &Metrics{}
			peer, err := Dial("s", srv.Addr(), m)
			if err != nil {
				errs <- err
				return
			}
			defer peer.Close()
			for i := 0; i < 50; i++ {
				payload := "y"
				var resp string
				if err := peer.Call(context.Background(), "x", &payload, &resp); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPServerClosedRejects(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	peer, err := Dial("s", addr, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The in-flight connection is closed by the server; calls now fail.
	payload := "b"
	if err := peer.Call(context.Background(), "m", &payload, nil); err == nil {
		t.Error("Call after server close should error")
	}
	peer.Close()
}

// gobCodec is the wire codec of this package's tests: the federation
// package installs the real one, which transport cannot import.
type gobCodec struct{}

func init() { SetCodec(gobCodec{}) }

func (gobCodec) Append(dst []byte, v any) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	buf := bytes.NewBuffer(dst)
	err := gob.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

func (gobCodec) Decode(data []byte, v any) error {
	if v == nil {
		return nil
	}
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

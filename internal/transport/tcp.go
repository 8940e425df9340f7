package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"dits/internal/obs"
)

// The TCP wire format frames each request as
//
//	uint32 method length | method | uint64 deadline ms | uint32 body length | body
//
// and each response as
//
//	uint8 status (0 ok, 1 error) | uint32 payload length | payload
//
// where an error payload is the error text. The deadline field is the
// caller's REMAINING time budget in milliseconds (0 = none): shipping a
// relative budget rather than an absolute wall-clock instant keeps the
// propagation correct across machines with skewed clocks. The server
// derives the handler's context from it, so a query that ran out of time
// is abandoned at the source too.
//
// The first request a dialer sends is a transport.hello exchange that
// checks both ends speak the same wire version (see helloMagic below).
// Bodies and OK payloads are always the installed codec's bytes,
// verbatim. A peer that refuses the hello, or answers it with another
// version, fails the dial; a server whose first exchange is anything but
// that hello refuses it and closes the connection. Error payloads are
// always raw text.
//
// Every post-hello exchange carries one extra frame per direction:
// requests append a trace-context frame (obs.AppendContext — empty for an
// untraced request) after the body, and responses append a span frame
// (obs.AppendSpans — the spans the server completed while handling the
// request, empty when untraced) after the payload, on both OK and error
// responses. The hello exchange itself carries neither.

// MaxFrame caps a frame payload to guard against corrupt length prefixes;
// a codec bounds anything it inflates from a payload by the same cap.
const MaxFrame = 1 << 30

// MethodHello is the reserved method name of the handshake exchange,
// which servers answer as each connection's first exchange, before any
// application dispatch.
const MethodHello = "transport.hello"

// helloMagic versions the whole wire — framing, trace frames and the
// payload codec (dits-bin/1). It is the hello's body and its reply, byte
// for byte; anything else is an error on either side.
const helloMagic = "dits-hello/3"

// ServeConfig names where a server keeps its traces.
type ServeConfig struct {
	// Recorder, when set, keeps each traced request's local span subtree
	// for this process's own GET /debug/traces (ditsserve and ditscenter
	// wire their -metrics-addr recorder here).
	Recorder *obs.Recorder
}

// Server serves one data source's Handler over TCP.
type Server struct {
	ln      net.Listener
	handler Handler
	cfg     ServeConfig
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts a TCP server on addr (e.g. "127.0.0.1:0") for the handler.
func Serve(addr string, handler Handler) (*Server, error) {
	return ServeWith(addr, handler, ServeConfig{})
}

// ServeWith starts a TCP server that keeps its traces as cfg says.
func ServeWith(addr string, handler Handler, cfg ServeConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler, cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// track registers a live connection; it reports false when the server is
// already closed and the connection should be dropped.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, terminating in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// serveConn runs one connection: the hello, then the request loop. All
// scratch buffers are per-connection and reused across requests: after
// the first few frames a steady-state connection reads, decodes, encodes,
// and writes without allocating beyond what the handler itself needs.
func (s *Server) serveConn(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	codec := theCodec()
	var methodBuf, bodyBuf, respBuf, traceBuf, spansBuf []byte
	names := make(map[string]string, 8) // interned method names
	// readRequest reads one request's method, deadline and body frames.
	readRequest := func() (deadlineMs uint64, err error) {
		if methodBuf, err = readFrameReuse(r, methodBuf); err != nil {
			return 0, err
		}
		if err := binary.Read(r, binary.BigEndian, &deadlineMs); err != nil {
			return 0, err
		}
		bodyBuf, err = readFrameReuse(r, bodyBuf)
		return deadlineMs, err
	}
	// respond writes one response: every response — errors included —
	// carries the span frame, or the dialer's framing desynchronizes.
	respond := func(status byte, payload []byte) error {
		if err := w.WriteByte(status); err != nil {
			return err
		}
		if err := writeFrame(w, payload); err != nil {
			return err
		}
		if err := writeFrame(w, spansBuf); err != nil {
			return err
		}
		return w.Flush()
	}
	if _, err := readRequest(); err != nil {
		return
	}
	if string(methodBuf) != MethodHello || string(bodyBuf) != helloMagic {
		// A peer of another wire version, or one that skipped the hello,
		// gets the refusal, then the connection closes: nothing it sends
		// next can parse.
		writeResponse(w, 1, []byte("transport: the first exchange must be a "+helloMagic+" hello"))
		return
	}
	if err := writeResponse(w, 0, []byte(helloMagic)); err != nil {
		return
	}
	for {
		deadlineMs, err := readRequest()
		if err != nil {
			return
		}
		if traceBuf, err = readFrameReuse(r, traceBuf); err != nil {
			return
		}
		method, ok := names[string(methodBuf)]
		if !ok {
			method = string(methodBuf)
			names[method] = method
		}
		spansBuf = spansBuf[:0]
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if deadlineMs > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMs)*time.Millisecond)
		}
		var tr *obs.Trace
		var serveSp *obs.ActiveSpan
		if id, parent, ok := obs.ParseContext(traceBuf); ok {
			tr = obs.Adopt(id, parent)
			ctx = obs.WithTrace(ctx, tr)
			ctx, serveSp = obs.StartSpan(ctx, "serve:"+method)
		}
		ret, herr := s.handler(ctx, codec, method, bodyBuf)
		cancel()
		if tr != nil {
			serveSp.EndErr(herr)
			spansBuf = obs.AppendSpans(spansBuf, tr.Snapshot())
			s.cfg.Recorder.Finish(tr, serveSp)
		}
		if herr == nil {
			respBuf, herr = codec.Append(respBuf[:0], ret)
		}
		if herr != nil {
			if err := respond(1, []byte(herr.Error())); err != nil {
				return
			}
			continue
		}
		if err := respond(0, respBuf); err != nil {
			return
		}
	}
}

// frameChunk is the first step by which readFrameReuse grows a buffer
// for a frame beyond its capacity.
const frameChunk = 64 << 10

// readFrameReuse reads one length-prefixed frame into buf and returns the
// (possibly reallocated) buffer sliced to the frame. A frame within buf's
// capacity is read in one go; a larger one grows the buffer chunk by
// chunk as its bytes arrive — each chunk at most the larger of frameChunk
// and the bytes already read — so a length prefix alone cannot make the
// process allocate up to MaxFrame.
func readFrameReuse(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return buf, errors.New("transport: frame too large")
	}
	if n <= cap(buf) {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), max(frameChunk, len(buf)))
		buf = slices.Grow(buf, chunk)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

func writeFrame(w io.Writer, b []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func writeResponse(w *bufio.Writer, status byte, payload []byte) error {
	if err := w.WriteByte(status); err != nil {
		return err
	}
	if err := writeFrame(w, payload); err != nil {
		return err
	}
	return w.Flush()
}

// helloTimeout bounds the handshake exchange at dial time.
const helloTimeout = 10 * time.Second

// TCPPeer is a Peer over a TCP connection. It is safe for sequential use;
// guard concurrent Calls externally or use one peer per goroutine.
type TCPPeer struct {
	Name    string
	Metrics *Metrics

	conn  net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	codec Codec
}

// Dial connects to a source server and runs the hello.
func Dial(name, addr string, metrics *Metrics) (*TCPPeer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	p := &TCPPeer{
		Name:    name,
		Metrics: metrics,
		conn:    conn,
		r:       bufio.NewReader(conn),
		w:       bufio.NewWriter(conn),
		codec:   theCodec(),
	}
	if err := p.hello(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: hello %s: %w", p.Name, err)
	}
	return p, nil
}

// hello runs the handshake as the connection's first exchange. A peer
// that refuses it (status 1) or answers for another wire version fails
// the dial: it cannot be spoken to.
func (p *TCPPeer) hello() error {
	p.conn.SetDeadline(time.Now().Add(helloTimeout))
	defer p.conn.SetDeadline(time.Time{})
	if err := writeFrame(p.w, []byte(MethodHello)); err != nil {
		return err
	}
	var deadline [8]byte
	if _, err := p.w.Write(deadline[:]); err != nil {
		return err
	}
	if err := writeFrame(p.w, []byte(helloMagic)); err != nil {
		return err
	}
	if err := p.w.Flush(); err != nil {
		return err
	}
	status, err := p.r.ReadByte()
	if err != nil {
		return err
	}
	payload, err := readFrameReuse(p.r, nil)
	if err != nil {
		return err
	}
	if status != 0 {
		return fmt.Errorf("peer refused the handshake: %s", payload)
	}
	if string(payload) != helloMagic {
		return fmt.Errorf("reply %q is not a %s hello", payload, helloMagic)
	}
	return nil
}

// Call implements Peer. A context deadline bounds the whole exchange (the
// connection's read/write deadlines are set from it) and its remaining
// budget is shipped in the request frame so the source abandons work the
// caller will never wait for. A deadline failure poisons the connection's
// framing, so the peer must be discarded afterwards — exactly what Pool's
// health-aware checkin does.
//
// On a traced context the exchange is recorded as an "rpc:<method>" span;
// the trace follows the request to the server and the server's spans
// come back merged into the caller's trace.
func (p *TCPPeer) Call(ctx context.Context, method string, req, resp any) error {
	tr, _ := obs.Current(ctx)
	sctx, sp := obs.StartSpan(ctx, "rpc:"+method)
	sp.SetSource(p.Name)
	err := p.call(sctx, tr, sp, method, req, resp)
	sp.EndErr(err)
	return err
}

func (p *TCPPeer) call(ctx context.Context, tr *obs.Trace, sp *obs.ActiveSpan, method string, req, resp any) error {
	var deadlineMs uint64
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return fmt.Errorf("transport: call %s: %w", p.Name, context.DeadlineExceeded)
		}
		ms := remaining.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		deadlineMs = uint64(ms)
		p.conn.SetDeadline(dl)
		defer p.conn.SetDeadline(time.Time{})
	} else if err := ctx.Err(); err != nil {
		return fmt.Errorf("transport: call %s: %w", p.Name, err)
	}
	encBuf := getBuf()
	defer putBuf(encBuf)
	body, err := p.codec.Append((*encBuf)[:0], req)
	if err != nil {
		return err
	}
	*encBuf = body
	if err := writeFrame(p.w, []byte(method)); err != nil {
		return fmt.Errorf("transport: send %s: %w", p.Name, err)
	}
	var dlBuf [8]byte
	binary.BigEndian.PutUint64(dlBuf[:], deadlineMs)
	if _, err := p.w.Write(dlBuf[:]); err != nil {
		return fmt.Errorf("transport: send %s: %w", p.Name, err)
	}
	if err := writeFrame(p.w, body); err != nil {
		return fmt.Errorf("transport: send %s: %w", p.Name, err)
	}
	tcBuf := getBuf()
	defer putBuf(tcBuf)
	tc := obs.AppendContext((*tcBuf)[:0], ctx)
	*tcBuf = tc
	if err := writeFrame(p.w, tc); err != nil {
		return fmt.Errorf("transport: send %s: %w", p.Name, err)
	}
	if err := p.w.Flush(); err != nil {
		return fmt.Errorf("transport: send %s: %w", p.Name, err)
	}
	status, err := p.r.ReadByte()
	if err != nil {
		return fmt.Errorf("transport: recv %s: %w", p.Name, err)
	}
	rdBuf := getBuf()
	defer putBuf(rdBuf)
	payload, err := readFrameReuse(p.r, (*rdBuf)[:0])
	*rdBuf = payload
	if err != nil {
		return fmt.Errorf("transport: recv %s: %w", p.Name, err)
	}
	// Read the span frame on error responses too, or the connection
	// desynchronizes.
	spBuf := getBuf()
	defer putBuf(spBuf)
	shipped, err := readFrameReuse(p.r, (*spBuf)[:0])
	*spBuf = shipped
	if err != nil {
		return fmt.Errorf("transport: recv %s: %w", p.Name, err)
	}
	if tr != nil {
		if spans, err := obs.DecodeSpans(shipped); err == nil {
			tr.Merge(spans, sp.Start())
		}
	}
	if status != 0 {
		return &RemoteError{Source: p.Name, Msg: string(payload)}
	}
	p.Metrics.Record(method, len(body)+len(method), len(payload))
	return p.codec.Decode(payload, resp)
}

// Close implements Peer.
func (p *TCPPeer) Close() error { return p.conn.Close() }

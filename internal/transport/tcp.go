package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
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
// checks both ends speak the same wire version and negotiates the
// connection's options (see helloMagic below). Bodies and OK payloads
// are always the installed codec's bytes, verbatim. A peer that refuses
// the hello, or answers it with another version, fails the dial. Error
// payloads are always raw text.
//
// When both ends negotiate the "trace" option, every post-hello exchange
// grows one extra frame per direction: requests append a trace-context
// frame (obs.AppendContext — empty for an untraced request) after the
// body, and responses append a span frame (obs.AppendSpans — the spans
// the server completed while handling the request, empty when untraced)
// after the payload, on both OK and error responses. A connection that
// did not negotiate "trace" carries neither frame — the caller then
// records an explicit "untraced" span instead (see Call).

// MaxFrame caps a frame payload to guard against corrupt length prefixes;
// a codec bounds anything it inflates from a payload by the same cap.
const MaxFrame = 1 << 30

// MethodHello is the reserved method name of the handshake exchange.
// Servers intercept it before application dispatch; it never reaches a
// Handler.
const MethodHello = "transport.hello"

// helloMagic versions the whole wire — framing, options and the payload
// codec (dits-bin/1). The hello body and its reply share one ASCII
// grammar:
//
//	dits-hello/2 <option1,option2,...|->
//
// where the request lists the options the dialer proposes and the reply
// the subset the server accepted. The one option is "trace"; "-" names
// none. Unknown options are ignored — a dialer proposing the retired
// "gzip" gets back the rest — and a magic other than this one is an error
// on either side.
const helloMagic = "dits-hello/2"

// helloBody returns a hello body naming the given options.
func helloBody(trace bool) []byte {
	if trace {
		return []byte(helloMagic + " trace")
	}
	return []byte(helloMagic + " -")
}

// parseHello reads a hello body and reports whether it names trace.
func parseHello(body []byte) (trace bool, err error) {
	fields := strings.Fields(string(body))
	if len(fields) != 2 || fields[0] != helloMagic {
		return false, fmt.Errorf("%q is not a %s hello", body, helloMagic)
	}
	for _, opt := range strings.Split(fields[1], ",") {
		if opt == "trace" {
			trace = true
		}
	}
	return trace, nil
}

// ServeConfig limits the options a server accepts and names where it
// keeps its traces.
type ServeConfig struct {
	// NoTrace refuses the trace option: requests are served untraced
	// even when the dialer proposes trace propagation.
	NoTrace bool
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

// Serve starts a TCP server on addr (e.g. "127.0.0.1:0") for the handler,
// accepting every option a dialer proposes.
func Serve(addr string, handler Handler) (*Server, error) {
	return ServeWith(addr, handler, ServeConfig{})
}

// ServeWith starts a TCP server with explicit option limits.
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

// serveConn runs one connection's request loop. All scratch buffers are
// per-connection and reused across requests: after the first few frames a
// steady-state connection reads, decodes, encodes, and writes without
// allocating beyond what the handler itself needs.
func (s *Server) serveConn(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	codec := theCodec()
	traced := false // the connection negotiated the trace option
	var methodBuf, bodyBuf, respBuf, traceBuf, spansBuf []byte
	names := make(map[string]string, 8) // interned method names
	// respond writes one response in the connection's negotiated framing:
	// once trace is on, every response — errors included — carries the
	// span frame, or the dialer's framing desynchronizes.
	respond := func(status byte, payload []byte) error {
		if err := w.WriteByte(status); err != nil {
			return err
		}
		if err := writeFrame(w, payload); err != nil {
			return err
		}
		if traced {
			if err := writeFrame(w, spansBuf); err != nil {
				return err
			}
		}
		return w.Flush()
	}
	for {
		var err error
		methodBuf, err = readFrameReuse(r, methodBuf)
		if err != nil {
			return
		}
		var deadlineMs uint64
		if err := binary.Read(r, binary.BigEndian, &deadlineMs); err != nil {
			return
		}
		bodyBuf, err = readFrameReuse(r, bodyBuf)
		if err != nil {
			return
		}
		method, ok := names[string(methodBuf)]
		if !ok {
			method = string(methodBuf)
			names[method] = method
		}
		if method == MethodHello && !traced {
			if traced, err = s.negotiate(bodyBuf); err != nil {
				// A peer of another wire version gets the refusal, then
				// the connection closes: nothing it sends next can parse.
				writeResponse(w, 1, []byte("transport: "+err.Error()))
				return
			}
			if err := writeResponse(w, 0, helloBody(traced)); err != nil {
				return
			}
			continue
		}
		spansBuf = spansBuf[:0]
		var tr *obs.Trace
		if traced {
			if traceBuf, err = readFrameReuse(r, traceBuf); err != nil {
				return
			}
			if id, parent, ok := obs.ParseContext(traceBuf); ok {
				tr = obs.Adopt(id, parent)
			}
		}
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if deadlineMs > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMs)*time.Millisecond)
		}
		var serveSp *obs.ActiveSpan
		if tr != nil {
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

// negotiate answers a hello body with the options to turn on: trace
// propagation is on iff the dialer proposed it and the config does not
// refuse it. A body of another wire version is an error, which the
// dialer fails on.
func (s *Server) negotiate(body []byte) (trace bool, err error) {
	trace, err = parseHello(body)
	return trace && !s.cfg.NoTrace, err
}

// readFrameReuse reads one length-prefixed frame into buf, growing it
// only when the frame exceeds its capacity, and returns the (possibly
// reallocated) buffer sliced to the frame.
func readFrameReuse(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return buf, errors.New("transport: frame too large")
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
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

// DialConfig limits the options a dialer proposes.
type DialConfig struct {
	// NoTrace withholds the trace option from the handshake; calls on
	// the connection are then recorded with an "untraced" marker span.
	NoTrace bool
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
	trace bool // the connection negotiated trace propagation
}

// Dial connects to a source server and negotiates every option.
func Dial(name, addr string, metrics *Metrics) (*TCPPeer, error) {
	return DialWith(name, addr, metrics, DialConfig{})
}

// DialWith connects with explicit option preferences.
func DialWith(name, addr string, metrics *Metrics, cfg DialConfig) (*TCPPeer, error) {
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
	if err := p.hello(cfg); err != nil {
		conn.Close()
		return nil, err
	}
	return p, nil
}

// hello runs the handshake as the connection's first exchange. A peer
// that refuses it (status 1) or answers for another wire version fails
// the dial: it cannot be spoken to.
func (p *TCPPeer) hello(cfg DialConfig) error {
	body := helloBody(!cfg.NoTrace)
	p.conn.SetDeadline(time.Now().Add(helloTimeout))
	defer p.conn.SetDeadline(time.Time{})
	if err := writeFrame(p.w, []byte(MethodHello)); err != nil {
		return fmt.Errorf("transport: hello %s: %w", p.Name, err)
	}
	var deadline [8]byte
	if _, err := p.w.Write(deadline[:]); err != nil {
		return fmt.Errorf("transport: hello %s: %w", p.Name, err)
	}
	if err := writeFrame(p.w, body); err != nil {
		return fmt.Errorf("transport: hello %s: %w", p.Name, err)
	}
	if err := p.w.Flush(); err != nil {
		return fmt.Errorf("transport: hello %s: %w", p.Name, err)
	}
	status, err := p.r.ReadByte()
	if err != nil {
		return fmt.Errorf("transport: hello %s: %w", p.Name, err)
	}
	payload, err := readFrameReuse(p.r, nil)
	if err != nil {
		return fmt.Errorf("transport: hello %s: %w", p.Name, err)
	}
	if status != 0 {
		return fmt.Errorf("transport: hello %s: peer refused the handshake: %s", p.Name, payload)
	}
	if p.trace, err = parseHello(payload); err != nil {
		return fmt.Errorf("transport: hello %s: %w", p.Name, err)
	}
	return nil
}

// WireInfo implements Wired.
func (p *TCPPeer) WireInfo() WireInfo {
	return WireInfo{Trace: p.trace}
}

// Call implements Peer. A context deadline bounds the whole exchange (the
// connection's read/write deadlines are set from it) and its remaining
// budget is shipped in the request frame so the source abandons work the
// caller will never wait for. A deadline failure poisons the connection's
// framing, so the peer must be discarded afterwards — exactly what Pool's
// health-aware checkin does.
//
// On a traced context the exchange is recorded as an "rpc:<method>" span.
// When the connection negotiated trace propagation the trace follows the
// request to the server and the server's spans come back merged into the
// caller's trace; against a NoTrace connection (either side) the rpc span
// instead gets an explicit "untraced" child marking where visibility
// ends.
func (p *TCPPeer) Call(ctx context.Context, method string, req, resp any) error {
	tr, _ := obs.Current(ctx)
	sctx, sp := obs.StartSpan(ctx, "rpc:"+method)
	sp.SetSource(p.Name)
	if sp != nil && !p.trace {
		_, marker := obs.StartSpan(sctx, "untraced")
		marker.SetSource(p.Name)
		marker.End()
	}
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
	if p.trace {
		tcBuf := getBuf()
		defer putBuf(tcBuf)
		tc := obs.AppendContext((*tcBuf)[:0], ctx)
		*tcBuf = tc
		if err := writeFrame(p.w, tc); err != nil {
			return fmt.Errorf("transport: send %s: %w", p.Name, err)
		}
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
	if p.trace {
		// The span frame is part of the negotiated framing: read it on
		// error responses too, or the connection desynchronizes.
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
	}
	if status != 0 {
		return &RemoteError{Source: p.Name, Msg: string(payload)}
	}
	p.Metrics.Record(method, len(body)+len(method), len(payload))
	return p.codec.Decode(payload, resp)
}

// Close implements Peer.
func (p *TCPPeer) Close() error { return p.conn.Close() }

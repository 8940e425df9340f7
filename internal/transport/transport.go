// Package transport carries messages between the data center and the data
// sources. Three Peer implementations are provided: an in-process
// transport whose payloads are still fully serialized (so
// communication-cost measurements are real byte counts, §VII-C2), a TCP
// transport using the same wire encoding for actually distributed
// deployments, and a connection pool multiplexing concurrent calls over
// several TCP connections to one source. Transmission time over a given
// bandwidth follows the paper's model: time = bytes / bandwidth.
//
// Every payload is in the one installed Codec (see SetCodec), shipped
// verbatim; TCP connections check the wire version in a transport.hello
// exchange at dial time and then carry trace frames on every exchange
// (see docs/PROTOCOL.md).
//
// Every Call carries a context: a deadline set by the caller (the
// gateway's per-request admission deadline, typically) propagates over
// the wire to the source, which runs its handler under the same deadline
// — a query that can no longer be answered in time is abandoned at every
// layer instead of completing uselessly.
package transport

import (
	"context"
	"fmt"
	"time"

	"dits/internal/metrics"
	"dits/internal/obs"
)

// Handler serves one source's requests: it receives the wire codec, a
// method name, and the encoded request body, and returns a response
// value the transport encodes with the same codec (a
// nil response encodes as an empty payload). The context carries the
// caller's remaining deadline (propagated over the wire for TCP
// transports); handlers pass it to cancellable work like the parallel
// executor.
type Handler func(ctx context.Context, codec Codec, method string, body []byte) (any, error)

// RemoteError is an application-level error returned by a source's handler.
// The request/response exchange itself succeeded, so the connection that
// carried it is still healthy — Pool uses this distinction to decide
// whether a failed connection should be discarded.
type RemoteError struct {
	Source string // peer name
	Msg    string // the handler's error text
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: source %s: %s", e.Source, e.Msg)
}

// Peer is a connection to one data source.
type Peer interface {
	// Call sends req and decodes the source's answer into resp, both
	// through the wire codec (a nil req sends an empty
	// body; a nil resp discards the payload). The context's deadline
	// bounds the whole exchange and is shipped to the source.
	Call(ctx context.Context, method string, req, resp any) error
	// Close releases the connection.
	Close() error
}

// WireInfo described a connection's optional wire features.
//
// Deprecated: every TCP connection carries trace frames, so there is
// nothing to report and no peer reports it. It remains only while the
// benchmark harness's traced-peer wrapper still names it.
type WireInfo struct {
	Trace bool `json:"trace,omitempty"`
}

// Wired was implemented by peers that reported a WireInfo.
//
// Deprecated: no peer implements it; see WireInfo.
type Wired interface {
	WireInfo() WireInfo
}

// Metrics accumulates the communication cost of a search: messages
// exchanged and payload bytes in both directions, broken down per protocol
// method, plus per-source failure counts. It is built on the lock-free
// metrics primitives — Record is a handful of atomic adds, so the hottest
// fan-out paths never serialize on a stats mutex — and registers its
// counters for Prometheus exposition via Register. The zero value is
// ready to use and all methods are safe for concurrent use.
type Metrics struct {
	messages      metrics.Counter
	bytesSent     metrics.Counter
	bytesReceived metrics.Counter

	methodCalls    metrics.CounterVec // by federation method
	methodSent     metrics.CounterVec
	methodReceived metrics.CounterVec
	failures       metrics.CounterVec // by source name
}

// MethodStats is the per-method slice of the counters: how many exchanges
// used the method and how many payload bytes they carried each way.
type MethodStats struct {
	Calls         int64 `json:"calls"`
	BytesSent     int64 `json:"bytesSent"`
	BytesReceived int64 `json:"bytesReceived"`
}

// Record adds one request/response exchange of the given method.
func (m *Metrics) Record(method string, sent, received int) {
	if m == nil {
		return
	}
	m.messages.Inc()
	m.bytesSent.Add(int64(sent))
	m.bytesReceived.Add(int64(received))
	m.methodCalls.With(method).Inc()
	m.methodSent.With(method).Add(int64(sent))
	m.methodReceived.With(method).Add(int64(received))
}

// RecordFailure counts one failed exchange against the named source — how
// a center's skip-and-record policy makes degraded sources observable.
func (m *Metrics) RecordFailure(source string) {
	if m == nil {
		return
	}
	m.failures.With(source).Inc()
}

// PerMethod returns a copy of the per-method counters.
func (m *Metrics) PerMethod() map[string]MethodStats {
	if m == nil {
		return nil
	}
	calls := m.methodCalls.Snapshot()
	sent := m.methodSent.Snapshot()
	recv := m.methodReceived.Snapshot()
	out := make(map[string]MethodStats, len(calls))
	for method, c := range calls {
		out[method] = MethodStats{Calls: c, BytesSent: sent[method], BytesReceived: recv[method]}
	}
	return out
}

// Failures returns a copy of the per-source failure counts.
func (m *Metrics) Failures() map[string]int64 {
	if m == nil {
		return nil
	}
	return m.failures.Snapshot()
}

// TotalFailures returns the number of failed exchanges recorded.
func (m *Metrics) TotalFailures() int64 {
	if m == nil {
		return 0
	}
	return m.failures.Total()
}

// Messages returns the number of exchanges recorded.
func (m *Metrics) Messages() int64 { return m.messages.Value() }

// Bytes returns total payload bytes transferred in both directions.
func (m *Metrics) Bytes() int64 { return m.BytesSent() + m.BytesReceived() }

// BytesSent returns request payload bytes (center -> sources).
func (m *Metrics) BytesSent() int64 { return m.bytesSent.Value() }

// BytesReceived returns response payload bytes (sources -> center).
func (m *Metrics) BytesReceived() int64 { return m.bytesReceived.Value() }

// Reset zeroes the counters.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.messages.Reset()
	m.bytesSent.Reset()
	m.bytesReceived.Reset()
	m.methodCalls.Reset()
	m.methodSent.Reset()
	m.methodReceived.Reset()
	m.failures.Reset()
}

// Register exposes the transport counters on a metrics registry under the
// dits_transport_* names (see docs/OPERATIONS.md for the full reference).
func (m *Metrics) Register(r *metrics.Registry) {
	r.RegisterCounter("dits_transport_messages_total",
		"Federation request/response exchanges", &m.messages)
	r.RegisterCounter("dits_transport_sent_bytes_total",
		"Request payload bytes, center to sources", &m.bytesSent)
	r.RegisterCounter("dits_transport_received_bytes_total",
		"Response payload bytes, sources to center", &m.bytesReceived)
	r.RegisterCounterVec("dits_transport_method_calls_total",
		"Exchanges per federation method", "method", &m.methodCalls)
	r.RegisterCounterVec("dits_transport_method_sent_bytes_total",
		"Request bytes per federation method", "method", &m.methodSent)
	r.RegisterCounterVec("dits_transport_method_received_bytes_total",
		"Response bytes per federation method", "method", &m.methodReceived)
	r.RegisterCounterVec("dits_transport_source_failures_total",
		"Failed exchanges per source", "source", &m.failures)
}

// TransmissionTime models the network time to move the recorded bytes over
// a link of the given bandwidth (bytes per second), as in Figs. 14 and 20:
// transmission time is proportional to bytes when bandwidth is constant.
func (m *Metrics) TransmissionTime(bytesPerSecond float64) time.Duration {
	if bytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(m.Bytes()) / bytesPerSecond * float64(time.Second))
}

// InProc is a Peer that invokes a Handler directly. Payloads cross the
// boundary as encoded bytes, so the metrics are identical to what a real
// network link would carry.
type InProc struct {
	Name    string
	Handler Handler
	Metrics *Metrics
	// Codec is the encoding payloads cross the boundary in; nil means
	// the installed wire codec (SetCodec).
	Codec Codec
}

func (p *InProc) codec() Codec {
	if p.Codec != nil {
		return p.Codec
	}
	return theCodec()
}

// Call implements Peer. The context (trace included) flows directly into
// the handler, so spans recorded by in-process "remote" work land in the
// caller's trace with no wire merge — but still under an rpc span, so an
// in-process federation shows the same span taxonomy as a TCP one.
func (p *InProc) Call(ctx context.Context, method string, req, resp any) error {
	sctx, sp := obs.StartSpan(ctx, "rpc:"+method)
	sp.SetSource(p.Name)
	err := p.call(sctx, method, req, resp)
	sp.EndErr(err)
	return err
}

func (p *InProc) call(ctx context.Context, method string, req, resp any) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("transport: call %s: %w", p.Name, err)
	}
	c := p.codec()
	reqBuf := getBuf()
	defer putBuf(reqBuf)
	body, err := c.Append((*reqBuf)[:0], req)
	if err != nil {
		return err
	}
	*reqBuf = body
	ret, herr := p.Handler(ctx, c, method, body)
	if herr != nil {
		return &RemoteError{Source: p.Name, Msg: herr.Error()}
	}
	respBuf := getBuf()
	defer putBuf(respBuf)
	payload, err := c.Append((*respBuf)[:0], ret)
	if err != nil {
		return err
	}
	*respBuf = payload
	p.Metrics.Record(method, len(body)+len(method), len(payload))
	return c.Decode(payload, resp)
}

// Close implements Peer.
func (p *InProc) Close() error { return nil }

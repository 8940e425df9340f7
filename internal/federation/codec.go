package federation

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"dits/internal/cellset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/transport"
)

// The binary wire codec of the federation protocol, dits-bin/1 — the only
// encoding payloads travel in. The transport installs it for every
// connection; the hello magic (transport's dits-hello/3) versions it.
//
// Every payload opens with a message-type byte, so a frame decoded as the
// wrong type errors instead of misparsing, and then the message fields
// in struct order. A type with no case here cannot be sent: Append fails.
//
// Field primitives: unsigned ints are uvarints, signed ints are zigzag
// varints, floats are 8 little-endian bytes of their IEEE-754 bits,
// bools are one byte, strings are uvarint length + bytes, slices are
// uvarint length + elements, and cell sets use the cellset wire form
// (delta-varint cell IDs or Compact containers as raw little-endian
// words — see cellset/wire.go and docs/PROTOCOL.md).
//
// The decoder is defensive end to end: every length is validated against
// the remaining input before allocation and corrupt or truncated frames
// return errors, never panic (FuzzCodec exercises exactly this).

// Message-type bytes, one per wire struct. Append-only: reusing a
// retired value would let two builds misparse each other's frames.
const (
	msgOverlapReq byte = iota + 1
	msgOverlapResp
	msgSearchBatchReq
	msgSearchBatchResp
	msgCoverageReq
	msgCoverageCand
	_ // 7: retired
	msgCoverageRoundResp
	_ // 9: retired
	_ // 10: retired
	msgSessionCloseReq
	msgSessionCloseResp
	_ // 13: retired
	msgDatasetPutReq
	msgDatasetDeleteReq
	msgMutateResp
	msgVersionReq
	msgVersionResp
	msgSourceSummary
	_ // 20: retired
	msgClusterForwardResp
	msgClusterInfoResp
	msgClusterRegisterReq
	_ // 24: retired
	// 25–29 are retired.
	msgWALShipReq byte = iota + 6
	msgWALShipResp
	// Frames that gained a field take a new byte; 7, 9 and 10 (their old
	// forms, without Final, Exclude and Next) are retired.
	msgCoverageRoundFinalReq
	msgFetchCellsExclReq
	msgFetchCellsNextResp
	// cluster.forward's request deflates its bodies as one stream; 20,
	// its form with raw bodies, is retired.
	msgClusterForwardDeflateReq
)

// BinaryCodec is the federation's wire codec.
var BinaryCodec transport.Codec = binCodec{}

func init() { transport.SetCodec(BinaryCodec) }

type binCodec struct{}

// maxWireSlice caps decoded slice lengths as a pre-allocation sanity
// bound; every element costs at least one byte on the wire, so the
// per-call check against the remaining input is the real guard.
const maxWireSlice = 1 << 24

func (binCodec) Append(dst []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case nil:
		return dst, nil
	case *OverlapRequest:
		dst = append(dst, msgOverlapReq)
		dst = m.Cells.AppendWire(dst)
		return binary.AppendVarint(dst, int64(m.K)), nil
	case *OverlapResponse:
		dst = append(dst, msgOverlapResp)
		return appendOverlapItems(dst, m.Results), nil
	case *SearchBatchRequest:
		dst = append(dst, msgSearchBatchReq)
		dst = binary.AppendUvarint(dst, uint64(len(m.Queries)))
		for i := range m.Queries {
			dst = m.Queries[i].Cells.AppendWire(dst)
			dst = binary.AppendVarint(dst, int64(m.Queries[i].K))
		}
		return dst, nil
	case *SearchBatchResponse:
		dst = append(dst, msgSearchBatchResp)
		dst = binary.AppendUvarint(dst, uint64(len(m.Results)))
		for i := range m.Results {
			dst = appendOverlapItems(dst, m.Results[i].Results)
		}
		return dst, nil
	case *CoverageRequest:
		dst = append(dst, msgCoverageReq)
		dst = m.Merged.AppendWire(dst)
		dst = appendF64(dst, m.Delta)
		return appendInts(dst, m.Exclude), nil
	case *CoverageCandidate:
		dst = append(dst, msgCoverageCand)
		dst = appendBool(dst, m.Found)
		dst = binary.AppendVarint(dst, int64(m.ID))
		dst = appendString(dst, m.Name)
		dst = binary.AppendVarint(dst, int64(m.Gain))
		return m.Cells.AppendWire(dst), nil
	case *CoverageRoundRequest:
		dst = append(dst, msgCoverageRoundFinalReq)
		dst = binary.AppendUvarint(dst, m.Session)
		dst = m.Base.AppendWire(dst)
		dst = m.Added.AppendWire(dst)
		dst = appendF64(dst, m.Delta)
		dst = appendInts(dst, m.Exclude)
		return appendBool(dst, m.Final), nil
	case *CoverageRoundResponse:
		dst = append(dst, msgCoverageRoundResp)
		dst = appendBool(dst, m.SessionMiss)
		dst = appendBool(dst, m.Stateless)
		return appendOffer(dst, &m.Offer), nil
	case *FetchCellsRequest:
		dst = append(dst, msgFetchCellsExclReq)
		dst = binary.AppendUvarint(dst, m.Session)
		dst = binary.AppendVarint(dst, int64(m.ID))
		return appendInts(dst, m.Exclude), nil
	case *FetchCellsResponse:
		dst = append(dst, msgFetchCellsNextResp)
		dst = appendBool(dst, m.Found)
		dst = appendBool(dst, m.Committed)
		dst = m.Cells.AppendWire(dst)
		return appendOffer(dst, &m.Next), nil
	case *SessionCloseRequest:
		dst = append(dst, msgSessionCloseReq)
		return binary.AppendUvarint(dst, m.Session), nil
	case *SessionCloseResponse:
		dst = append(dst, msgSessionCloseResp)
		return appendBool(dst, m.Closed), nil
	case *DatasetPutRequest:
		dst = append(dst, msgDatasetPutReq)
		dst = binary.AppendVarint(dst, int64(m.ID))
		dst = appendString(dst, m.Name)
		return m.Cells.AppendWire(dst), nil
	case *DatasetDeleteRequest:
		dst = append(dst, msgDatasetDeleteReq)
		return binary.AppendVarint(dst, int64(m.ID)), nil
	case *MutateResponse:
		return appendMutate(append(dst, msgMutateResp), m), nil
	case *VersionRequest:
		return append(dst, msgVersionReq), nil
	case *VersionResponse:
		dst = append(dst, msgVersionResp)
		dst = appendString(dst, m.Name)
		dst = binary.AppendUvarint(dst, m.Version)
		return appendBool(dst, m.Durable), nil
	case *dits.SourceSummary:
		dst = append(dst, msgSourceSummary)
		return appendSummary(dst, m), nil
	case *ClusterForwardRequest:
		dst = append(dst, msgClusterForwardDeflateReq)
		dst = binary.AppendUvarint(dst, uint64(len(m.Calls)))
		total := 0
		for _, c := range m.Calls {
			dst = appendString(appendString(dst, c.Source), c.Method)
			dst = binary.AppendUvarint(dst, uint64(len(c.Body)))
			total += len(c.Body)
		}
		if total == 0 {
			return dst, nil
		}
		return appendDeflated(dst, m.Calls), nil
	case *ClusterForwardResponse:
		dst = append(dst, msgClusterForwardResp)
		dst = binary.AppendUvarint(dst, uint64(len(m.Replies)))
		for _, r := range m.Replies {
			dst = appendBool(appendString(appendString(dst, r.Body), r.Err), r.Transport)
		}
		return dst, nil
	case *ClusterInfoResponse:
		dst = appendString(append(dst, msgClusterInfoResp), m.Name)
		dst = binary.AppendUvarint(dst, m.Generation)
		dst = binary.AppendUvarint(dst, uint64(len(m.Shard)))
		for i := range m.Shard {
			dst = binary.AppendUvarint(appendSummary(dst, &m.Shard[i].Summary), m.Shard[i].Version)
		}
		return dst, nil
	case *ClusterRegisterRequest:
		dst = appendString(appendString(append(dst, msgClusterRegisterReq), m.Name), m.Addr)
		dst = binary.AppendUvarint(dst, uint64(len(m.Replicas)))
		for _, r := range m.Replicas {
			dst = appendString(dst, r)
		}
		return dst, nil
	case *WALShipRequest:
		return binary.AppendUvarint(append(dst, msgWALShipReq), m.After), nil
	case *WALShipResponse:
		dst = appendString(append(dst, msgWALShipResp), m.Frames)
		dst = binary.AppendUvarint(dst, m.Version)
		return appendBool(dst, m.TooOld), nil
	default:
		return dst, fmt.Errorf("federation: codec: no binary encoding for %T", v)
	}
}

func (binCodec) Decode(data []byte, v any) error {
	if v == nil {
		return nil
	}
	if len(data) < 1 {
		return errors.New("federation: codec: empty payload")
	}
	msg, data := data[0], data[1:]
	r := wireReader{data: data}
	switch m := v.(type) {
	case *OverlapRequest:
		r.expect(msg, msgOverlapReq)
		m.Cells = r.set()
		m.K = r.int()
	case *OverlapResponse:
		r.expect(msg, msgOverlapResp)
		m.Results = r.overlapItems()
	case *SearchBatchRequest:
		r.expect(msg, msgSearchBatchReq)
		n := r.sliceLen()
		m.Queries = nil
		if r.err == nil && n > 0 {
			m.Queries = make([]OverlapRequest, n)
			for i := range m.Queries {
				m.Queries[i].Cells = r.set()
				m.Queries[i].K = r.int()
			}
		}
	case *SearchBatchResponse:
		r.expect(msg, msgSearchBatchResp)
		n := r.sliceLen()
		m.Results = nil
		if r.err == nil && n > 0 {
			m.Results = make([]OverlapResponse, n)
			for i := range m.Results {
				m.Results[i].Results = r.overlapItems()
			}
		}
	case *CoverageRequest:
		r.expect(msg, msgCoverageReq)
		m.Merged = r.set()
		m.Delta = r.f64()
		m.Exclude = r.ints()
	case *CoverageCandidate:
		r.expect(msg, msgCoverageCand)
		m.Found = r.bool()
		m.ID = r.int()
		m.Name = r.string()
		m.Gain = r.int()
		m.Cells = r.set()
	case *CoverageRoundRequest:
		r.expect(msg, msgCoverageRoundFinalReq)
		m.Session = r.uvarint()
		m.Base = r.compact()
		m.Added = r.compact()
		m.Delta = r.f64()
		m.Exclude = r.ints()
		m.Final = r.bool()
	case *CoverageRoundResponse:
		r.expect(msg, msgCoverageRoundResp)
		m.SessionMiss = r.bool()
		m.Stateless = r.bool()
		r.offer(&m.Offer)
	case *FetchCellsRequest:
		r.expect(msg, msgFetchCellsExclReq)
		m.Session = r.uvarint()
		m.ID = r.int()
		m.Exclude = r.ints()
	case *FetchCellsResponse:
		r.expect(msg, msgFetchCellsNextResp)
		m.Found = r.bool()
		m.Committed = r.bool()
		m.Cells = r.compact()
		r.offer(&m.Next)
	case *SessionCloseRequest:
		r.expect(msg, msgSessionCloseReq)
		m.Session = r.uvarint()
	case *SessionCloseResponse:
		r.expect(msg, msgSessionCloseResp)
		m.Closed = r.bool()
	case *DatasetPutRequest:
		r.expect(msg, msgDatasetPutReq)
		m.ID = r.int()
		m.Name = r.string()
		m.Cells = r.set()
	case *DatasetDeleteRequest:
		r.expect(msg, msgDatasetDeleteReq)
		m.ID = r.int()
	case *MutateResponse:
		r.expect(msg, msgMutateResp)
		r.mutate(m)
	case *VersionRequest:
		r.expect(msg, msgVersionReq)
	case *VersionResponse:
		r.expect(msg, msgVersionResp)
		m.Name = r.string()
		m.Version = r.uvarint()
		m.Durable = r.bool()
	case *dits.SourceSummary:
		r.expect(msg, msgSourceSummary)
		r.summary(m)
	case *ClusterForwardRequest:
		r.expect(msg, msgClusterForwardDeflateReq)
		r.forwardCalls(m)
	case *ClusterForwardResponse:
		r.expect(msg, msgClusterForwardResp)
		m.Replies = nil
		if n := r.sliceLen(); n > 0 {
			m.Replies = make([]ForwardReply, n)
		}
		for i := range m.Replies {
			m.Replies[i] = ForwardReply{Body: r.bytes(), Err: r.string(), Transport: r.bool()}
		}
	case *ClusterInfoResponse:
		r.expect(msg, msgClusterInfoResp)
		m.Name = r.string()
		m.Generation = r.uvarint()
		m.Shard = nil
		if n := r.sliceLen(); n > 0 {
			m.Shard = make([]ShardSource, n)
		}
		for i := range m.Shard {
			r.summary(&m.Shard[i].Summary)
			m.Shard[i].Version = r.uvarint()
		}
	case *ClusterRegisterRequest:
		r.expect(msg, msgClusterRegisterReq)
		m.Name = r.string()
		m.Addr = r.string()
		m.Replicas = nil
		if n := r.sliceLen(); n > 0 {
			m.Replicas = make([]string, n)
		}
		for i := range m.Replicas {
			m.Replicas[i] = r.string()
		}
	case *WALShipRequest:
		r.expect(msg, msgWALShipReq)
		m.After = r.uvarint()
	case *WALShipResponse:
		r.expect(msg, msgWALShipResp)
		m.Frames = r.bytes()
		m.Version = r.uvarint()
		m.TooOld = r.bool()
	default:
		return fmt.Errorf("federation: codec: no binary decoding for %T", v)
	}
	if r.err != nil {
		return fmt.Errorf("federation: codec: %w", r.err)
	}
	if len(r.data) != 0 {
		return fmt.Errorf("federation: codec: %d trailing bytes", len(r.data))
	}
	return nil
}

// Encode-side helpers. All are append-style and allocation-free beyond
// dst's growth, so the encode path stays zero-alloc with a pooled buffer.

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendString[S string | []byte](dst []byte, s S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendInts(dst []byte, xs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

func appendOverlapItems(dst []byte, items []OverlapItem) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for i := range items {
		dst = binary.AppendVarint(dst, int64(items[i].ID))
		dst = appendString(dst, items[i].Name)
		dst = binary.AppendVarint(dst, int64(items[i].Overlap))
	}
	return dst
}

func appendOffer(dst []byte, o *Offer) []byte {
	dst = binary.AppendVarint(appendBool(dst, o.Found), int64(o.ID))
	dst = appendString(dst, o.Name)
	return binary.AppendVarint(dst, int64(o.Gain))
}

func appendMutate(dst []byte, m *MutateResponse) []byte {
	dst = binary.AppendUvarint(appendBool(dst, m.Found), m.Version)
	dst = binary.AppendVarint(dst, int64(m.NumDatasets))
	return appendSummary(dst, &m.Summary)
}

func appendSummary(dst []byte, s *dits.SourceSummary) []byte {
	dst = appendString(dst, s.Name)
	dst = appendF64(dst, s.Rect.MinX)
	dst = appendF64(dst, s.Rect.MinY)
	dst = appendF64(dst, s.Rect.MaxX)
	dst = appendF64(dst, s.Rect.MaxY)
	dst = appendF64(dst, s.O.X)
	dst = appendF64(dst, s.O.Y)
	dst = appendF64(dst, s.R)
	dst = binary.AppendVarint(dst, int64(s.Grid.Theta))
	dst = appendF64(dst, s.Grid.Origin.X)
	dst = appendF64(dst, s.Grid.Origin.Y)
	dst = appendF64(dst, s.Grid.CellW)
	return appendF64(dst, s.Grid.CellH)
}

// The cluster.forward request carries its calls' bodies as one raw
// deflate stream: two or three co-located sources get near-identical
// clipped bodies, so the relay's request is the one payload that
// compression pays for. Everything else ships as the codec writes it.

// maxDeflateRatio is deflate's largest possible expansion: a 258-byte
// match costs at least two bits. A declared total beyond it cannot be
// honest, so the decoder refuses it before allocating.
const maxDeflateRatio = 1032

// deflater is a raw-deflate writer appending to a caller's buffer.
type deflater struct {
	zw  *flate.Writer
	dst []byte
}

func (d *deflater) Write(p []byte) (int, error) {
	d.dst = append(d.dst, p...)
	return len(p), nil
}

// deflaters keeps idle deflaters, so encoding a forward request
// allocates nothing once warm. A deflater holds about 1 MiB of match
// tables, so only a few are kept; a sync.Pool would not do, as the race
// detector drops a quarter of its Puts and CI gates zero allocations
// under it.
var deflaters = make(chan *deflater, 4)

// inflater is a pooled raw-deflate reader over a frame's tail.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser // implements flate.Resetter
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.zr = flate.NewReader(&f.src)
	return f
}}

// appendDeflated appends one raw deflate stream of the calls' bodies,
// concatenated, to dst. A flate.Writer fails only when its destination
// does, and appending cannot.
func appendDeflated(dst []byte, calls []ForwardCall) []byte {
	var d *deflater
	select {
	case d = <-deflaters:
	default:
		d = new(deflater)
		d.zw, _ = flate.NewWriter(d, flate.DefaultCompression) // the level is valid
	}
	d.dst = dst
	d.zw.Reset(d)
	for _, c := range calls {
		d.zw.Write(c.Body)
	}
	d.zw.Close()
	dst, d.dst = d.dst, nil
	select {
	case deflaters <- d:
	default:
	}
	return dst
}

// forwardCalls decodes a cluster.forward request: the calls' headers,
// then the rest of the frame as the bodies' deflate stream. The declared
// total is bounded by the frame cap and by deflate's ratio before one
// buffer is allocated; the stream must inflate to exactly that many
// bytes and end with the frame. Each body aliases the buffer.
func (r *wireReader) forwardCalls(m *ClusterForwardRequest) {
	m.Calls = nil
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return
	}
	m.Calls = make([]ForwardCall, n)
	ends := make([]int, n)
	var total uint64
	for i := range m.Calls {
		m.Calls[i].Source = r.string()
		m.Calls[i].Method = r.string()
		l := r.uvarint()
		if l > transport.MaxFrame-total {
			r.fail("forward bodies exceed the frame cap")
			return
		}
		total += l
		ends[i] = int(total)
	}
	if r.err != nil || total == 0 {
		return
	}
	if total > uint64(len(r.data))*maxDeflateRatio {
		r.fail("forward bodies: %d bytes cannot inflate from %d", total, len(r.data))
		return
	}
	buf := make([]byte, total)
	f := inflaters.Get().(*inflater)
	f.src.Reset(r.data)
	f.zr.(flate.Resetter).Reset(&f.src, nil)
	_, err := io.ReadFull(f.zr, buf)
	if err == nil {
		var one [1]byte
		if k, eof := f.zr.Read(one[:]); k != 0 || eof != io.EOF {
			err = errors.New("stream longer than declared")
		} else if f.src.Len() != 0 {
			err = fmt.Errorf("%d bytes after the stream", f.src.Len())
		}
	}
	f.src.Reset(nil)
	inflaters.Put(f)
	if err != nil {
		r.fail("forward bodies: %v", err)
		return
	}
	r.data = nil
	start := 0
	for i, end := range ends {
		if end > start {
			m.Calls[i].Body = buf[start:end:end]
		}
		start = end
	}
}

// wireReader is the decode-side cursor: reads are sticky-error, so a
// decode body reads every field unconditionally and checks err once.
type wireReader struct {
	data []byte
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
		r.data = nil
	}
}

func (r *wireReader) expect(got, want byte) {
	if got != want {
		r.fail("message type %d, want %d", got, want)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *wireReader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.data = r.data[n:]
	return int(v)
}

func (r *wireReader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.data) < 1 {
		r.fail("truncated bool")
		return false
	}
	b := r.data[0]
	r.data = r.data[1:]
	if b > 1 {
		r.fail("bool byte %d", b)
		return false
	}
	return b == 1
}

func (r *wireReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

func (r *wireReader) string() string {
	if r.err != nil {
		return ""
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)) {
		r.fail("string length %d exceeds input", n)
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// bytes reads a length-prefixed byte string into memory of its own (the
// frame buffer is reused); empty decodes as nil. Like string, it is
// bounded by the remaining input only, not maxWireSlice: the copy is
// made after the check, and a wal.ship batch may legally exceed 16 MiB
// (ingest caps a batch softly and a single record at 64 MiB).
func (r *wireReader) bytes() []byte {
	if r.err != nil {
		return nil
	}
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)) {
		r.fail("byte string length %d exceeds input", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	b := append([]byte(nil), r.data[:n]...)
	r.data = r.data[n:]
	return b
}

// sliceLen reads a slice length, bounds-checked against the remaining
// input (one byte per element minimum).
func (r *wireReader) sliceLen() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > maxWireSlice || n > uint64(len(r.data)) {
		r.fail("slice length %d out of range", n)
		return 0
	}
	return int(n)
}

func (r *wireReader) ints() []int {
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.int()
	}
	if r.err != nil {
		return nil
	}
	return xs
}

func (r *wireReader) set() cellset.Set {
	if r.err != nil {
		return nil
	}
	s, rest, err := cellset.DecodeWireSet(r.data)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	r.data = rest
	return s
}

// compact reads a cell set into container form; the empty set is nil.
func (r *wireReader) compact() *cellset.Compact {
	if r.err != nil {
		return nil
	}
	c, rest, err := cellset.DecodeWireCompact(r.data)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	r.data = rest
	if c.IsEmpty() {
		return nil
	}
	return c
}

func (r *wireReader) overlapItems() []OverlapItem {
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return nil
	}
	items := make([]OverlapItem, n)
	for i := range items {
		items[i].ID = r.int()
		items[i].Name = r.string()
		items[i].Overlap = r.int()
	}
	if r.err != nil {
		return nil
	}
	return items
}

func (r *wireReader) offer(o *Offer) {
	o.Found = r.bool()
	o.ID = r.int()
	o.Name = r.string()
	o.Gain = r.int()
}

func (r *wireReader) mutate(m *MutateResponse) {
	m.Found = r.bool()
	m.Version = r.uvarint()
	m.NumDatasets = r.int()
	r.summary(&m.Summary)
}

func (r *wireReader) summary(s *dits.SourceSummary) {
	s.Name = r.string()
	s.Rect = geo.Rect{MinX: r.f64(), MinY: r.f64(), MaxX: r.f64(), MaxY: r.f64()}
	s.O = geo.Point{X: r.f64(), Y: r.f64()}
	s.R = r.f64()
	s.Grid.Theta = r.int()
	s.Grid.Origin = geo.Point{X: r.f64(), Y: r.f64()}
	s.Grid.CellW = r.f64()
	s.Grid.CellH = r.f64()
}

package federation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dits/internal/cellset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
	"dits/internal/transport"
)

// The binary wire codec of the federation protocol, dits-bin/1 — the only
// encoding payloads travel in. The transport installs it for every
// connection; the hello magic (transport's dits-hello/6) versions it.
//
// Every payload opens with a message-type byte, so a frame decoded as the
// wrong type errors instead of misparsing, and then the message fields
// in struct order. A type with no case here cannot be sent: Append fails.
//
// Field primitives: unsigned ints are uvarints, signed ints are zigzag
// varints, floats are 8 little-endian bytes of their IEEE-754 bits,
// bools are one byte, strings are uvarint length + bytes, slices are
// uvarint length + elements, and cell sets use the cellset wire form
// (per chunk, byte deltas behind control bits or a bitmap's words — see
// cellset/wire.go and docs/PROTOCOL.md).
//
// The decoder is defensive end to end: every length is validated against
// the remaining input before allocation and corrupt or truncated frames
// return errors, never panic (FuzzCodec exercises exactly this).

// Message-type bytes, one per wire struct. Append-only: reusing a
// retired value would let two builds misparse each other's frames. A frame
// that gains a field takes a new byte and retires the old: 7, 9 and 10,
// coverage.round, coverage.fetch and its answer before Final, Exclude and
// Next; 32 to 34, the same three before Close, Added and guards, and 8,
// coverage.round's answer before guards; 39 and 41, coverage.round's and
// coverage.fetch's answers before ceilings; 11 and 12, coverage.close's; 20
// and 35, cluster.forward's with method strings and raw or deflated
// bodies; 23, cluster.register's without the grid; 13 and 24 to 29,
// earlier forms.
const (
	msgOverlapReq byte = iota + 1
	msgOverlapResp
	msgSearchBatchReq
	msgSearchBatchResp
	msgCoverageReq
	msgCoverageCand
	msgDatasetPutReq byte = iota + 8
	msgDatasetDeleteReq
	msgMutateResp
	msgVersionReq
	msgVersionResp
	msgSourceSummary
	_ // 20: retired
	msgClusterForwardResp
	msgClusterInfoResp
	msgWALShipReq byte = iota + 15
	msgWALShipResp
	msgClusterForwardOpsReq byte = iota + 19
	msgClusterRegisterGridReq
	msgCoverageRoundCloseReq
	_ // 39: retired
	msgFetchCellsAddedReq
	_ // 41: retired
	msgCoverageRoundCeilResp
	msgFetchCellsCeilResp
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
		dst = append(dst, msgCoverageRoundCloseReq)
		dst = binary.AppendUvarint(dst, m.Session)
		dst = m.Base.AppendWire(dst)
		dst = m.Added.AppendWire(dst)
		dst = appendF64(dst, m.Delta)
		dst = appendInts(dst, m.Exclude)
		dst = binary.AppendUvarint(dst, uint64(len(m.Close)))
		for _, id := range m.Close {
			dst = binary.AppendUvarint(dst, id)
		}
		return dst, nil
	case *CoverageRoundResponse:
		dst = append(dst, msgCoverageRoundCeilResp)
		dst = appendBool(dst, m.SessionMiss)
		dst = appendBool(dst, m.Stateless)
		return appendOffer(dst, &m.Offer), nil
	case *FetchCellsRequest:
		dst = append(dst, msgFetchCellsAddedReq)
		dst = binary.AppendUvarint(dst, m.Session)
		dst = binary.AppendVarint(dst, int64(m.ID))
		dst = appendInts(dst, m.Exclude)
		return m.Added.AppendWire(dst), nil
	case *FetchCellsResponse:
		dst = append(dst, msgFetchCellsCeilResp)
		dst = appendBool(dst, m.Found)
		dst = appendBool(dst, m.Committed)
		dst = m.Cells.AppendWire(dst)
		return appendOffer(dst, &m.Next), nil
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
	case rawBody:
		return append(dst, m...), nil
	case *ClusterForwardRequest:
		dst = append(dst, msgClusterForwardOpsReq)
		dst = binary.AppendUvarint(dst, uint64(len(m.Calls)))
		total := 0
		for _, c := range m.Calls {
			code, ok := relayCode(c.Method)
			if !ok {
				return dst, fmt.Errorf("federation: codec: cluster.forward does not relay %q", c.Method)
			}
			dst = append(appendString(dst, c.Source), code)
			dst = binary.AppendUvarint(dst, uint64(len(c.Body)))
			total += len(c.Body)
		}
		if total == 0 {
			return dst, nil
		}
		return appendOps(dst, m.Calls, total), nil
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
		dst = appendString(appendString(append(dst, msgClusterRegisterGridReq), m.Name), m.Addr)
		dst = binary.AppendUvarint(dst, uint64(len(m.Replicas)))
		for _, r := range m.Replicas {
			dst = appendString(dst, r)
		}
		return appendGrid(dst, m.Grid), nil
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
	switch m := v.(type) {
	case nil:
		return nil
	case *rawBody:
		*m = append([]byte(nil), data...)
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
		r.expect(msg, msgCoverageRoundCloseReq)
		m.Session = r.uvarint()
		m.Base = r.compact()
		m.Added = r.compact()
		m.Delta = r.f64()
		m.Exclude = r.ints()
		m.Close = nil
		for n := r.sliceLen(); n > 0 && r.err == nil; n-- {
			m.Close = append(m.Close, r.uvarint())
		}
	case *CoverageRoundResponse:
		r.expect(msg, msgCoverageRoundCeilResp)
		m.SessionMiss = r.bool()
		m.Stateless = r.bool()
		r.offer(&m.Offer)
	case *FetchCellsRequest:
		r.expect(msg, msgFetchCellsAddedReq)
		m.Session = r.uvarint()
		m.ID = r.int()
		m.Exclude = r.ints()
		m.Added = r.compact()
	case *FetchCellsResponse:
		r.expect(msg, msgFetchCellsCeilResp)
		m.Found = r.bool()
		m.Committed = r.bool()
		m.Cells = r.compact()
		r.offer(&m.Next)
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
		r.expect(msg, msgClusterForwardOpsReq)
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
		r.expect(msg, msgClusterRegisterGridReq)
		m.Name = r.string()
		m.Addr = r.string()
		m.Replicas = nil
		if n := r.sliceLen(); n > 0 {
			m.Replicas = make([]string, n)
		}
		for i := range m.Replicas {
			m.Replicas[i] = r.string()
		}
		m.Grid = r.grid()
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

// appendOffer writes an offer; its guard is a uvarint count and, per
// span, four uvarints and the ceiling as a uvarint of Ceil − Gain. The
// form has no ceiling below the gain: one is written as the gain, which
// bounds the next offer just as well.
func appendOffer(dst []byte, o *Offer) []byte {
	dst = binary.AppendVarint(appendBool(dst, o.Found), int64(o.ID))
	dst = appendString(dst, o.Name)
	dst = binary.AppendVarint(dst, int64(o.Gain))
	dst = binary.AppendUvarint(dst, uint64(len(o.Guard)))
	for _, sp := range o.Guard {
		dst = binary.AppendUvarint(dst, uint64(sp.X0))
		dst = binary.AppendUvarint(dst, uint64(sp.Y0))
		dst = binary.AppendUvarint(dst, uint64(sp.X1))
		dst = binary.AppendUvarint(dst, uint64(sp.Y1))
		dst = binary.AppendUvarint(dst, uint64(max(sp.Ceil-o.Gain, 0)))
	}
	return dst
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
	return appendGrid(appendF64(dst, s.R), s.Grid)
}

func appendGrid(dst []byte, g geo.Grid) []byte {
	dst = binary.AppendVarint(dst, int64(g.Theta))
	dst = appendF64(dst, g.Origin.X)
	dst = appendF64(dst, g.Origin.Y)
	dst = appendF64(dst, g.CellW)
	return appendF64(dst, g.CellH)
}

// The cluster.forward request carries its calls' bodies as one op stream
// over their concatenation, copy/literal ops in the manner of VCDIFF (RFC
// 3284): two or three co-located sources get near-identical clipped
// bodies, so a later body is mostly copies of an earlier one. An op opens
// with a uvarint length<<1 | kind: a literal (kind 0) is followed by its
// bytes, a copy (kind 1) by a uvarint distance back into the output.
// Every op produces at least one byte; a copy is at most maxCopy bytes
// and never longer than its distance, so source and destination never
// overlap. Everything else ships as the codec writes it.

const (
	// maxCopy is the longest copy op.
	maxCopy = 64 << 10
	// minCopyOp is the fewest stream bytes a maxCopy-byte copy costs: a
	// 3-byte header and a 3-byte distance of at least maxCopy. No op
	// yields more output per stream byte, so maxCopy/minCopyOp bounds
	// what a stream can claim.
	minCopyOp = 6
	// copyWindow is the match length the hash table indexes.
	copyWindow = 4
	// copyHashBits sizes the hash table: 4,096 slots of 4-byte windows.
	copyHashBits = 12
)

// relayMethods are the source methods cluster.forward relays — every
// method a query or a mutation sends a source — indexed by wire code.
// Code 4, the retired coverage.close's, is the empty name: never relayed,
// refused on decode.
var relayMethods = [...]string{
	MethodOverlap, MethodSearchBatch, MethodCoverageRound, MethodFetchCells,
	"", MethodDatasetPut, MethodDatasetDelete,
}

// relayCode returns method's wire code, if cluster.forward relays it.
func relayCode(method string) (byte, bool) {
	for i, m := range relayMethods {
		if m == method && m != "" {
			return byte(i), true
		}
	}
	return 0, false
}

// rawBody is a payload the codec passes through untouched: appended as
// is, and decoded as a copy of the frame, which the transport reuses. The
// relay ships source calls in it without decoding them.
type rawBody []byte

// opCoder is the encoder's scratch: the match table, and the bodies
// concatenated so a match may reach into any earlier body.
type opCoder struct {
	table [1 << copyHashBits]int32 // 1 + the latest position of each window hash; 0 is empty
	src   []byte
}

// opCoders keeps idle coders, so encoding a forward request allocates
// nothing once warm. A sync.Pool would not do: the race detector drops a
// quarter of its Puts, and CI gates zero allocations under it. Eight is
// more than the encodes a gateway runs at once on a few cores; a burst
// beyond that allocates coders the channel then drops.
var opCoders = make(chan *opCoder, 8)

// maxKeptSrc caps the concatenation buffer an idle coder keeps.
const maxKeptSrc = 1 << 20

// appendOps appends the op stream of the calls' bodies, total bytes in
// all, to dst. Matching is greedy: each position looks up the latest
// earlier position whose 4-byte window hashes alike, and a verified match
// is extended both ways as far as the bytes agree.
func appendOps(dst []byte, calls []ForwardCall, total int) []byte {
	var oc *opCoder
	select {
	case oc = <-opCoders:
		clear(oc.table[:])
	default:
		oc = new(opCoder)
	}
	src := slices.Grow(oc.src[:0], total)
	for _, c := range calls {
		src = append(src, c.Body...)
	}
	lit := 0 // start of the pending literal
	for i := 0; i+copyWindow <= len(src); {
		w := binary.LittleEndian.Uint32(src[i:])
		h := w * 0x1e35a7bd >> (32 - copyHashBits)
		cand := int(oc.table[h]) - 1
		if cand >= 0 && i-cand < copyWindow {
			i++ // too close to copy: a run, which copies from its start
			continue
		}
		if cand < 0 || binary.LittleEndian.Uint32(src[cand:]) != w {
			oc.table[h] = int32(i + 1)
			i++
			continue
		}
		// A match keeps the entry it found, so a run copies from its
		// start at doubling distances.
		dist := i - cand
		limit := min(dist, maxCopy)
		n := copyWindow + matchLen(src[cand+copyWindow:], src[i+copyWindow:min(len(src), i+limit)])
		for i > lit && n < limit && cand > 0 && src[cand-1] == src[i-1] {
			i, cand, n = i-1, cand-1, n+1
		}
		dst = appendLiteral(dst, src[lit:i])
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(n)<<1|1), uint64(dist))
		i += n
		lit = i
	}
	dst = appendLiteral(dst, src[lit:])
	oc.src = src[:0]
	if cap(src) > maxKeptSrc {
		oc.src = nil
	}
	select {
	case opCoders <- oc:
	default:
	}
	return dst
}

// matchLen returns how many leading bytes b shares with a; a is at least
// as long as b.
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(b); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func appendLiteral(dst, lit []byte) []byte {
	if len(lit) == 0 {
		return dst
	}
	return append(binary.AppendUvarint(dst, uint64(len(lit))<<1), lit...)
}

// expandOps runs the op stream ops into out, whose capacity is the
// declared total: the stream must fill it exactly and end with ops.
func expandOps(out, ops []byte) ([]byte, error) {
	for len(out) < cap(out) {
		if len(ops) == 0 {
			return nil, fmt.Errorf("stream ends %d bytes short of the declared %d", cap(out)-len(out), cap(out))
		}
		h, k := binary.Uvarint(ops)
		if k <= 0 {
			return nil, errors.New("truncated op")
		}
		ops = ops[k:]
		n := h >> 1
		switch {
		case n == 0:
			return nil, errors.New("empty op")
		case n > uint64(cap(out)-len(out)):
			return nil, fmt.Errorf("stream longer than the declared %d", cap(out))
		}
		if h&1 == 0 {
			if n > uint64(len(ops)) {
				return nil, errors.New("truncated literal")
			}
			out = append(out, ops[:n]...)
			ops = ops[n:]
			continue
		}
		d, k := binary.Uvarint(ops)
		if k <= 0 {
			return nil, errors.New("truncated op")
		}
		ops = ops[k:]
		switch {
		case d == 0 || d > uint64(len(out)):
			return nil, fmt.Errorf("copy distance %d at output %d", d, len(out))
		case n > d:
			return nil, fmt.Errorf("copy of %d bytes longer than its distance %d", n, d)
		case n > maxCopy:
			return nil, fmt.Errorf("copy of %d bytes beyond %d", n, maxCopy)
		}
		p := len(out) - int(d)
		out = append(out, out[p:p+int(n)]...)
	}
	if len(ops) != 0 {
		return nil, fmt.Errorf("%d bytes after the stream", len(ops))
	}
	return out, nil
}

// forwardCalls decodes a cluster.forward request: the calls' headers,
// then the rest of the frame as the bodies' op stream. The declared total
// is bounded by the frame cap and by what the stream's length can yield
// before one buffer is allocated; the stream must expand to exactly that
// many bytes and end with the frame. Each body aliases the buffer.
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
		m.Calls[i].Method = r.method()
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
	if total > uint64(len(r.data))*maxCopy/minCopyOp {
		r.fail("forward bodies: %d bytes cannot expand from %d", total, len(r.data))
		return
	}
	buf, err := expandOps(make([]byte, 0, total), r.data)
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

// method reads a relayed method's one-byte code.
func (r *wireReader) method() string {
	if r.err != nil {
		return ""
	}
	if len(r.data) < 1 {
		r.fail("truncated method code")
		return ""
	}
	c := r.data[0]
	r.data = r.data[1:]
	if int(c) >= len(relayMethods) || relayMethods[c] == "" {
		r.fail("method code %d", c)
		return ""
	}
	return relayMethods[c]
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
	o.Guard = nil
	n := r.uvarint()
	if n > coverage.GuardSpans {
		r.fail("guard of %d spans", n)
	}
	for ; n > 0 && r.err == nil; n-- {
		sp := coverage.GuardSpan{Span: cellset.Span{X0: r.uint32(), Y0: r.uint32(), X1: r.uint32(), Y1: r.uint32()}}
		d := r.uvarint()
		if sp.Ceil = o.Gain + int(d); d > math.MaxInt || sp.Ceil < o.Gain {
			r.fail("guard ceiling %d above gain %d overflows", d, o.Gain)
		}
		o.Guard = append(o.Guard, sp)
	}
}

// uint32 reads a uvarint that must fit 32 bits.
func (r *wireReader) uint32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("varint %d beyond 32 bits", v)
		return 0
	}
	return uint32(v)
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
	s.Grid = r.grid()
}

func (r *wireReader) grid() geo.Grid {
	return geo.Grid{Theta: r.int(), Origin: geo.Point{X: r.f64(), Y: r.f64()}, CellW: r.f64(), CellH: r.f64()}
}

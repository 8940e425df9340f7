package obs

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"
)

// Wire encodings for the transport's trace frames
// (docs/PROTOCOL.md, "Trace propagation"). The trace-context frame is
// fixed-width binary — 16 bytes of trace ID followed by 8 bytes of
// big-endian parent span ID — and an empty frame marks an untraced
// request. The spans frame is a uvarint-packed list of the spans a server
// completed while handling the request, with Start offsets relative to
// the server's own trace anchor; the caller rebases them with
// Trace.Merge, so no wall-clock instant ever crosses the wire.

// ContextSize is the byte length of a non-empty trace-context frame.
const ContextSize = 24

// AppendContext appends the context's trace coordinates (trace ID +
// current span ID) to buf. An untraced context appends nothing — the
// empty frame is the wire form of "no trace".
func AppendContext(buf []byte, ctx context.Context) []byte {
	tr, span := Current(ctx)
	if tr == nil {
		return buf
	}
	id := tr.ID()
	buf = append(buf, id[:]...)
	return binary.BigEndian.AppendUint64(buf, uint64(span))
}

// ParseContext decodes a trace-context frame. ok is false for an empty
// or malformed frame (the request is then served untraced).
func ParseContext(b []byte) (id TraceID, parent SpanID, ok bool) {
	if len(b) != ContextSize {
		return id, 0, false
	}
	copy(id[:], b[:16])
	parent = SpanID(binary.BigEndian.Uint64(b[16:]))
	return id, parent, !id.IsZero()
}

// AppendSpans appends the uvarint-packed span list to buf.
func AppendSpans(buf []byte, spans []Span) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	for _, s := range spans {
		buf = binary.AppendUvarint(buf, uint64(s.ID))
		buf = binary.AppendUvarint(buf, uint64(s.Parent))
		buf = appendString(buf, s.Name)
		buf = appendString(buf, s.Source)
		buf = binary.AppendUvarint(buf, uint64(max(s.Start, 0)))
		buf = binary.AppendUvarint(buf, uint64(max(s.Duration, 0)))
		buf = appendString(buf, s.Err)
	}
	return buf
}

// DecodeSpans decodes a span list produced by AppendSpans. An empty
// frame decodes to nil.
func DecodeSpans(b []byte) ([]Span, error) {
	if len(b) == 0 {
		return nil, nil
	}
	n, b, err := uvarint(b)
	if err != nil {
		return nil, err
	}
	const maxWireSpans = 4 * maxSpans // guard against corrupt counts
	if n > maxWireSpans {
		return nil, fmt.Errorf("obs: span frame claims %d spans", n)
	}
	out := make([]Span, 0, n)
	for i := uint64(0); i < n; i++ {
		var s Span
		var v uint64
		if v, b, err = uvarint(b); err != nil {
			return nil, err
		}
		s.ID = SpanID(v)
		if v, b, err = uvarint(b); err != nil {
			return nil, err
		}
		s.Parent = SpanID(v)
		if s.Name, b, err = decodeString(b); err != nil {
			return nil, err
		}
		if s.Source, b, err = decodeString(b); err != nil {
			return nil, err
		}
		if v, b, err = uvarint(b); err != nil {
			return nil, err
		}
		s.Start = time.Duration(v)
		if v, b, err = uvarint(b); err != nil {
			return nil, err
		}
		s.Duration = time.Duration(v)
		if s.Err, b, err = decodeString(b); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(b []byte) (string, []byte, error) {
	n, b, err := uvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(b)) {
		return "", nil, fmt.Errorf("obs: truncated span frame")
	}
	return string(b[:n]), b[n:], nil
}

func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("obs: truncated span frame")
	}
	return v, b[n:], nil
}

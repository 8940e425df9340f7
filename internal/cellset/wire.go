package cellset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Wire serialization of cell sets — the compact binary encoding the
// federation's binary codec ships query and dataset cells in (see
// docs/PROTOCOL.md, "Cell-set encoding"). A serialized set is one form
// tag followed by the form's payload:
//
//	wireEmpty:  nothing — the empty set.
//	wireChunks: uvarint total cardinality, uvarint chunk count, then per
//	            chunk (ascending key order): uvarint delta-encoded chunk
//	            key (first absolute, then key - previous - 1), uvarint
//	            chunk cardinality n, and the chunk's payload. A bitmap
//	            chunk (n > arrayMaxLen) is the 1024 little-endian uint64
//	            words Compact stores. An array chunk is ⌈n/8⌉ control
//	            bytes, then n deltas v - prev - 1 of its 16-bit values
//	            (prev restarts at -1 in every chunk): one byte below 256,
//	            two bytes little-endian otherwise, and bit k%8 of control
//	            byte k/8 is set iff delta k takes two. Control bits and
//	            data bytes lie apart, as in Stream VByte (Lemire, Kurz &
//	            Rupp, 2018), so neither side branches on the data.
//
// Tag 1, a flat delta-varint form of earlier wire versions, is retired
// and refused like any unknown tag. Set.AppendWire and Compact.AppendWire
// write the same bytes, and since deltas restart per chunk, a chunk's
// bytes do not depend on the chunks around it.
//
// Decoders accept only the canonical form — one encoding per set — and
// validate everything: counts against remaining input, control bits
// past n, values past 65535, two-byte deltas below 256, bitmap
// cardinality, key/cell overflow. They return errors, never panic, on
// truncated or corrupt input (fuzz-tested).
const (
	wireEmpty  = 0
	wireChunks = 2
)

// errWire is the common prefix of wire-decoding failures.
var errWire = errors.New("cellset: corrupt wire set")

func wireErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWire, fmt.Sprintf(format, args...))
}

// chunkRoom bounds the bytes of one chunk of n cells from above: header,
// payload and the byte appendDeltas writes past an array's payload.
func chunkRoom(n int) int {
	if n > arrayMaxLen {
		return 2*binary.MaxVarintLen64 + bitmapWords*8
	}
	return 2*binary.MaxVarintLen64 + 2*n + n/8 + 2
}

// growChunk makes room in dst for one chunk of n cells, vals if it is an
// array chunk, when chunkRoom(n) does not fit. It measures the array's
// payload, so that a dst sized for the encoding never grows.
func growChunk[T uint16 | uint64](dst []byte, vals []T, n int) []byte {
	if n > arrayMaxLen {
		return slices.Grow(dst, chunkRoom(n))
	}
	return slices.Grow(dst, 2*binary.MaxVarintLen64+deltasLen(vals)+1)
}

// appendHeader appends the form tag, the cardinality and the chunk count.
func appendHeader(dst []byte, n, nchunks int) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(append(dst, wireChunks), uint64(n)), uint64(nchunks))
}

// appendChunkHeader appends a chunk's key, as a delta from the previous
// key (^0 before the first, so the first goes out as itself), and its
// cardinality.
func appendChunkHeader(dst []byte, key, prevKey uint64, n int) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(dst, key-prevKey-1), uint64(n))
}

// AppendWire appends the wire encoding of s to dst and returns the
// extended slice. It allocates nothing beyond dst's growth.
func (s Set) AppendWire(dst []byte) []byte {
	if len(s) == 0 {
		return append(dst, wireEmpty)
	}
	nchunks := 0
	for i := 0; i < len(s); i = chunkEnd(s, i) {
		nchunks++
	}
	dst = appendHeader(dst, len(s), nchunks)
	prevKey := ^uint64(0)
	for i := 0; i < len(s); {
		j := chunkEnd(s, i)
		key := s[i] >> chunkBits
		if cap(dst)-len(dst) < chunkRoom(j-i) {
			dst = growChunk(dst, s[i:j], j-i)
		}
		dst = appendChunkHeader(dst, key, prevKey, j-i)
		if j-i <= arrayMaxLen {
			dst = appendDeltas(dst, s[i:j])
		} else {
			bm := dst[len(dst) : len(dst)+bitmapWords*8]
			clear(bm)
			for _, cell := range s[i:j] {
				v := cell & chunkMask
				bm[v>>3] |= 1 << (v & 7) // byte v/8 of the little-endian words
			}
			dst = dst[:len(dst)+len(bm)]
		}
		prevKey = key
		i = j
	}
	return dst
}

// AppendWire appends the wire encoding of c to dst and returns the
// extended slice: byte for byte what c.Set().AppendWire writes, with no
// intermediate flat Set. Bitmap chunks go out as their stored words. It
// allocates nothing beyond dst's growth.
func (c *Compact) AppendWire(dst []byte) []byte {
	if c.Len() == 0 {
		return append(dst, wireEmpty)
	}
	dst = appendHeader(dst, c.n, len(c.keys))
	prevKey := ^uint64(0)
	for i, key := range c.keys {
		ct := &c.cts[i]
		if cap(dst)-len(dst) < chunkRoom(ct.n) {
			dst = growChunk(dst, ct.arr, ct.n)
		}
		dst = appendChunkHeader(dst, key, prevKey, ct.n)
		if ct.bm == nil {
			dst = appendDeltas(dst, ct.arr)
		} else {
			for _, w := range ct.bm {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
		}
		prevKey = key
	}
	return dst
}

// appendDeltas appends the array-chunk payload of vals (ascending, only
// the low 16 bits count) to dst, which must have room for it and one
// byte more. It takes no branch on the data: every delta is stored as
// two bytes, and the position then steps over one or both.
func appendDeltas[T uint16 | uint64](dst []byte, vals []T) []byte {
	buf, ctrl := dst[:cap(dst)], len(dst)
	p := ctrl + (len(vals)+7)/8
	next, c := uint32(0), uint32(0)
	for k, v := range vals {
		x := uint32(v) & chunkMask
		d := x - next
		next = x + 1
		big := (d + 0xff00) >> 16 // 1 iff d >= 256
		buf[p] = byte(d)
		buf[p+1] = byte(d >> 8)
		p += 1 + int(big)
		c = c>>1 | big<<7 // after eight values, bit j is value j's
		if k&7 == 7 {
			buf[ctrl] = byte(c)
			ctrl++
		}
	}
	if r := len(vals) & 7; r != 0 {
		buf[ctrl] = byte(c >> (8 - r))
	}
	return dst[:p]
}

// deltasLen is the length of the array-chunk payload of vals.
func deltasLen[T uint16 | uint64](vals []T) int {
	n := (len(vals)+7)/8 + len(vals)
	next := uint32(0)
	for _, v := range vals {
		x := uint32(v) & chunkMask
		n += int((x - next + 0xff00) >> 16)
		next = x + 1
	}
	return n
}

// getDeltas decodes an array-chunk payload of len(out) values from the
// front of data into out and returns the rest. It takes no branch on
// the data: a one-byte delta reads its own byte again as the high byte
// and masks it off.
func getDeltas(out []uint16, data []byte) ([]byte, error) {
	n := len(out)
	nctrl := (n + 7) / 8
	if len(data) < nctrl {
		return nil, wireErr("truncated control bytes")
	}
	ctrl, data := data[:nctrl], data[nctrl:]
	if r := n & 7; r != 0 && ctrl[nctrl-1]>>r != 0 {
		return nil, wireErr("control bit past the chunk's %d values", n)
	}
	need := n
	for _, c := range ctrl {
		need += bits.OnesCount8(c)
	}
	if len(data) < need {
		return nil, wireErr("truncated array chunk")
	}
	var next, loose, c uint32
	p := 0
	for k := range out {
		if k&7 == 0 {
			c = uint32(ctrl[k>>3])
		}
		big := c & 1
		c >>= 1
		d := uint32(data[p]) | uint32(data[p+int(big)])<<8&-big
		p += 1 + int(big)
		loose |= big & ((d - 256) >> 31) // a two-byte delta below 256
		next += d
		out[k] = uint16(next)
		next++
	}
	// Values only grow, so the last one is the largest.
	if next > chunkMask+1 {
		return nil, wireErr("array chunk value past %d", chunkMask)
	}
	if loose != 0 {
		return nil, wireErr("two-byte delta below 256")
	}
	return data[need:], nil
}

// DecodeWireSet decodes one wire-encoded cell set from the front of data,
// returning the set and the unconsumed remainder.
func DecodeWireSet(data []byte) (Set, []byte, error) {
	c, rest, err := DecodeWireCompact(data)
	if err != nil {
		return nil, nil, err
	}
	return c.Set(), rest, nil
}

// MarshalBinary returns the wire encoding of c (encoding.BinaryMarshaler).
func (c *Compact) MarshalBinary() ([]byte, error) { return c.AppendWire(nil), nil }

// UnmarshalBinary sets c to the set the wire encoding data holds, which
// must be all of data (encoding.BinaryUnmarshaler).
func (c *Compact) UnmarshalBinary(data []byte) error {
	d, rest, err := DecodeWireCompact(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return wireErr("%d bytes after the set", len(rest))
	}
	*c = *d
	return nil
}

// DecodeWireCompact decodes one wire-encoded cell set from the front of
// data directly into container form, returning the set and the
// unconsumed remainder.
func DecodeWireCompact(data []byte) (*Compact, []byte, error) {
	if len(data) == 0 {
		return nil, nil, wireErr("missing form tag")
	}
	switch form, data := data[0], data[1:]; form {
	case wireEmpty:
		return &Compact{}, data, nil
	case wireChunks:
		return decodeWireChunks(data)
	default:
		return nil, nil, wireErr("unknown form tag %d", form)
	}
}

// decodeWireChunks decodes the container form.
func decodeWireChunks(data []byte) (*Compact, []byte, error) {
	total, data, err := wireUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	nchunks, data, err := wireUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	// A bitmap chunk holds at most 65536 cells in 8 KiB (8 cells/byte),
	// and every chunk costs at least two header bytes: cheap upper bounds
	// that reject hostile counts before any allocation.
	if total == 0 || total > 8*uint64(len(data)) {
		return nil, nil, wireErr("cardinality %d out of range", total)
	}
	if nchunks == 0 || nchunks > uint64(len(data)/2)+1 {
		return nil, nil, wireErr("chunk count %d out of range", nchunks)
	}
	c := &Compact{
		keys: make([]uint64, 0, nchunks),
		cts:  make([]container, 0, nchunks),
	}
	prevKey := uint64(0)
	for i := uint64(0); i < nchunks; i++ {
		d, rest, err := wireUvarint(data)
		if err != nil {
			return nil, nil, err
		}
		data = rest
		key := d
		if i > 0 {
			key = prevKey + 1 + d
			if key <= prevKey {
				return nil, nil, wireErr("chunk key overflow")
			}
		}
		if key > (1<<(64-chunkBits))-1 {
			return nil, nil, wireErr("chunk key %d out of range", key)
		}
		prevKey = key
		n, rest, err := wireUvarint(data)
		if err != nil {
			return nil, nil, err
		}
		data = rest
		if n == 0 || n > 1<<chunkBits || uint64(c.n)+n > total {
			return nil, nil, wireErr("chunk cardinality %d out of range", n)
		}
		ct := container{n: int(n)}
		if n <= arrayMaxLen {
			ct.arr = make([]uint16, n)
			if data, err = getDeltas(ct.arr, data); err != nil {
				return nil, nil, err
			}
		} else {
			need := bitmapWords * 8
			if len(data) < need {
				return nil, nil, wireErr("truncated bitmap chunk")
			}
			ct.bm = new(bitmap)
			pop := 0
			for w := range ct.bm {
				ct.bm[w] = binary.LittleEndian.Uint64(data[8*w:])
				pop += bits.OnesCount64(ct.bm[w])
			}
			if pop != int(n) {
				return nil, nil, wireErr("bitmap cardinality %d != declared %d", pop, n)
			}
			data = data[need:]
		}
		c.keys = append(c.keys, key)
		c.cts = append(c.cts, ct)
		c.n += ct.n
	}
	if uint64(c.n) != total {
		return nil, nil, wireErr("cardinality %d != declared %d", c.n, total)
	}
	return c, data, nil
}

// wireUvarint reads one uvarint off the front of data.
func wireUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, wireErr("truncated varint")
	}
	return v, data[n:], nil
}

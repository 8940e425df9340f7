package cellset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Wire serialization of cell sets — the compact binary encoding the
// federation's binary codec ships query and dataset cells in (see
// docs/PROTOCOL.md, "Cell-set encoding"). A serialized set is one form
// tag followed by the form's payload:
//
//	wireEmpty:  nothing — the empty set.
//	wireFlat:   uvarint count, then the cells delta-encoded: the first
//	            cell as a uvarint, every later cell as uvarint
//	            (cell - previous - 1). Used for tiny sets, where the
//	            container form's per-chunk overhead would dominate.
//	wireChunks: uvarint total cardinality, uvarint chunk count, then per
//	            chunk (ascending key order): uvarint delta-encoded chunk
//	            key (first absolute, then key - previous - 1), uvarint
//	            chunk cardinality n, and the container payload exactly as
//	            Compact stores it — n little-endian uint16 words when
//	            n <= arrayMaxLen (the sorted array form), else the 1024
//	            little-endian uint64 words of the chunk bitmap. No Set
//	            round-trip: a Compact's containers are copied to the wire
//	            as raw words, and a sorted flat Set is chunk-walked
//	            directly into the identical container layout.
//
// Decoders validate everything — counts against remaining input, array
// ordering, bitmap cardinality, key/cell overflow — and return errors,
// never panic, on truncated or corrupt input (fuzz-tested).
const (
	wireEmpty  = 0
	wireFlat   = 1
	wireChunks = 2

	// flatWireMax is the largest set encoded in flat form: beyond it the
	// container form is at most 2 bytes/cell plus small per-chunk
	// overhead, which beats varint deltas on all but pathological sets.
	flatWireMax = 64
)

// errWire is the common prefix of wire-decoding failures.
var errWire = errors.New("cellset: corrupt wire set")

func wireErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWire, fmt.Sprintf(format, args...))
}

// AppendWire appends the wire encoding of s to dst and returns the
// extended slice. It allocates nothing beyond dst's growth.
func (s Set) AppendWire(dst []byte) []byte {
	if len(s) == 0 {
		return append(dst, wireEmpty)
	}
	if len(s) <= flatWireMax {
		dst = binary.AppendUvarint(append(dst, wireFlat), uint64(len(s)))
		prev := flatStart
		for _, cell := range s {
			dst = binary.AppendUvarint(dst, cell-prev-1)
			prev = cell
		}
		return dst
	}
	dst = append(dst, wireChunks)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	nchunks := 0
	prevKey := ^uint64(0)
	for _, cell := range s {
		if key := cell >> chunkBits; key != prevKey {
			nchunks++
			prevKey = key
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nchunks))
	prevKey = 0
	first := true
	for i := 0; i < len(s); {
		key := s[i] >> chunkBits
		j := i + 1
		for j < len(s) && s[j]>>chunkBits == key {
			j++
		}
		if first {
			dst = binary.AppendUvarint(dst, key)
			first = false
		} else {
			dst = binary.AppendUvarint(dst, key-prevKey-1)
		}
		prevKey = key
		n := j - i
		dst = binary.AppendUvarint(dst, uint64(n))
		if n <= arrayMaxLen {
			for _, cell := range s[i:j] {
				dst = binary.LittleEndian.AppendUint16(dst, uint16(cell&chunkMask))
			}
		} else {
			var bm bitmap
			for _, cell := range s[i:j] {
				v := cell & chunkMask
				bm[v>>6] |= 1 << (v & 63)
			}
			dst = appendBitmap(dst, &bm)
		}
		i = j
	}
	return dst
}

// flatStart is the "previous cell" of a flat set's first cell: the
// delta first−flatStart−1 wraps to the first cell itself.
const flatStart = ^uint64(0)

// AppendWire appends the wire encoding of c to dst and returns the
// extended slice: the form Set.AppendWire chooses, byte for byte, so
// c.AppendWire and c.Set().AppendWire are identical. Containers are
// written to the wire in the exact form they are stored — raw
// little-endian words, array or bitmap as-is — with no intermediate flat
// Set. It allocates nothing beyond dst's growth.
func (c *Compact) AppendWire(dst []byte) []byte {
	if c.Len() == 0 {
		return append(dst, wireEmpty)
	}
	if c.n <= flatWireMax {
		// So few cells are array containers only.
		dst = binary.AppendUvarint(append(dst, wireFlat), uint64(c.n))
		prev := flatStart
		for i, key := range c.keys {
			for _, v := range c.cts[i].arr {
				cell := key<<chunkBits | uint64(v)
				dst = binary.AppendUvarint(dst, cell-prev-1)
				prev = cell
			}
		}
		return dst
	}
	dst = append(dst, wireChunks)
	dst = binary.AppendUvarint(dst, uint64(c.n))
	dst = binary.AppendUvarint(dst, uint64(len(c.keys)))
	prevKey := uint64(0)
	for i, key := range c.keys {
		if i == 0 {
			dst = binary.AppendUvarint(dst, key)
		} else {
			dst = binary.AppendUvarint(dst, key-prevKey-1)
		}
		prevKey = key
		ct := &c.cts[i]
		dst = binary.AppendUvarint(dst, uint64(ct.n))
		if ct.bm == nil {
			for _, v := range ct.arr {
				dst = binary.LittleEndian.AppendUint16(dst, v)
			}
		} else {
			dst = appendBitmap(dst, ct.bm)
		}
	}
	return dst
}

func appendBitmap(dst []byte, bm *bitmap) []byte {
	for _, w := range bm {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// DecodeWireSet decodes one wire-encoded cell set from the front of data,
// returning the set and the unconsumed remainder.
func DecodeWireSet(data []byte) (Set, []byte, error) {
	c, s, rest, err := decodeWire(data, false)
	if err != nil {
		return nil, nil, err
	}
	if c != nil {
		return c.Set(), rest, nil
	}
	return s, rest, nil
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
// data directly into container form — chunk payloads are copied off the
// wire as raw words, with no flat Set round-trip — returning the set and
// the unconsumed remainder.
func DecodeWireCompact(data []byte) (*Compact, []byte, error) {
	c, s, rest, err := decodeWire(data, true)
	if err != nil {
		return nil, nil, err
	}
	if c == nil {
		c = FromSet(s)
	}
	return c, rest, nil
}

// decodeWire is the shared decoder: container-form input yields a
// *Compact, flat-form input yields a Set (converting is the caller's
// choice; tiny flat sets convert cheaply either way).
func decodeWire(data []byte, wantCompact bool) (*Compact, Set, []byte, error) {
	if len(data) == 0 {
		return nil, nil, nil, wireErr("missing form tag")
	}
	form, data := data[0], data[1:]
	switch form {
	case wireEmpty:
		return nil, nil, data, nil
	case wireFlat:
		n, data, err := wireUvarint(data)
		if err != nil {
			return nil, nil, nil, err
		}
		// Every flat cell costs at least one byte, so n can never
		// honestly exceed the remaining input — reject before allocating.
		if n == 0 || n > uint64(len(data)) {
			return nil, nil, nil, wireErr("flat count %d out of range", n)
		}
		s := make(Set, 0, n)
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			d, rest, err := wireUvarint(data)
			if err != nil {
				return nil, nil, nil, err
			}
			data = rest
			cell := d
			if i > 0 {
				if d > ^uint64(0)-prev-1 {
					return nil, nil, nil, wireErr("flat delta overflow")
				}
				cell = prev + 1 + d
			}
			s = append(s, cell)
			prev = cell
		}
		return nil, s, data, nil
	case wireChunks:
		return decodeWireChunks(data, wantCompact)
	default:
		return nil, nil, nil, wireErr("unknown form tag %d", form)
	}
}

// decodeWireChunks decodes the container form.
func decodeWireChunks(data []byte, wantCompact bool) (*Compact, Set, []byte, error) {
	total, data, err := wireUvarint(data)
	if err != nil {
		return nil, nil, nil, err
	}
	nchunks, data, err := wireUvarint(data)
	if err != nil {
		return nil, nil, nil, err
	}
	// A bitmap chunk holds at most 65536 cells in 8 KiB (8 cells/byte),
	// and every chunk costs at least two header bytes: cheap upper bounds
	// that reject hostile counts before any allocation.
	if total == 0 || total > 8*uint64(len(data)) {
		return nil, nil, nil, wireErr("cardinality %d out of range", total)
	}
	if nchunks == 0 || nchunks > uint64(len(data)/2)+1 {
		return nil, nil, nil, wireErr("chunk count %d out of range", nchunks)
	}
	var c *Compact
	var flat Set
	if wantCompact {
		c = &Compact{
			keys: make([]uint64, 0, nchunks),
			cts:  make([]container, 0, nchunks),
		}
	} else {
		flat = make(Set, 0, total)
	}
	prevKey := uint64(0)
	for i := uint64(0); i < nchunks; i++ {
		d, rest, err := wireUvarint(data)
		if err != nil {
			return nil, nil, nil, err
		}
		data = rest
		key := d
		if i > 0 {
			key = prevKey + 1 + d
			if key <= prevKey {
				return nil, nil, nil, wireErr("chunk key overflow")
			}
		}
		if key > (1<<(64-chunkBits))-1 {
			return nil, nil, nil, wireErr("chunk key %d out of range", key)
		}
		prevKey = key
		n, rest, err := wireUvarint(data)
		if err != nil {
			return nil, nil, nil, err
		}
		data = rest
		if n == 0 || n > 1<<chunkBits {
			return nil, nil, nil, wireErr("chunk cardinality %d out of range", n)
		}
		var ct container
		if n <= arrayMaxLen {
			need := 2 * int(n)
			if len(data) < need {
				return nil, nil, nil, wireErr("truncated array chunk")
			}
			arr := make([]uint16, n)
			prev := -1
			for k := range arr {
				v := binary.LittleEndian.Uint16(data[2*k:])
				if int(v) <= prev {
					return nil, nil, nil, wireErr("array chunk not strictly increasing")
				}
				prev = int(v)
				arr[k] = v
			}
			data = data[need:]
			ct = container{arr: arr, n: int(n)}
		} else {
			need := bitmapWords * 8
			if len(data) < need {
				return nil, nil, nil, wireErr("truncated bitmap chunk")
			}
			var bm bitmap
			pop := 0
			for w := range bm {
				bm[w] = binary.LittleEndian.Uint64(data[8*w:])
				pop += bits.OnesCount64(bm[w])
			}
			if pop != int(n) {
				return nil, nil, nil, wireErr("bitmap cardinality %d != declared %d", pop, n)
			}
			data = data[need:]
			ct = container{bm: &bm, n: int(n)}
		}
		if wantCompact {
			c.keys = append(c.keys, key)
			c.cts = append(c.cts, ct)
			c.n += ct.n
		} else {
			base := key << chunkBits
			if ct.bm == nil {
				for _, v := range ct.arr {
					flat = append(flat, base|uint64(v))
				}
			} else {
				for w, word := range ct.bm {
					for ; word != 0; word &= word - 1 {
						flat = append(flat, base|uint64(w<<6|bits.TrailingZeros64(word)))
					}
				}
			}
		}
	}
	got := uint64(len(flat))
	if wantCompact {
		got = uint64(c.n)
	}
	if got != total {
		return nil, nil, nil, wireErr("cardinality %d != declared %d", got, total)
	}
	if wantCompact {
		return c, nil, data, nil
	}
	return nil, flat, data, nil
}

// wireUvarint reads one uvarint off the front of data.
func wireUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, wireErr("truncated varint")
	}
	return v, data[n:], nil
}

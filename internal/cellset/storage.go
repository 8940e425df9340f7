package cellset

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// Storage serialization of container sets — the on-disk form the snapshot
// format (internal/index/ditsfile) stores cell sets in. Unlike the wire
// form (wire.go), which optimizes for transmitted bytes with varint-delta
// headers, the storage form optimizes for being READ IN PLACE: every
// numeric field sits at a naturally aligned offset, container payloads are
// the exact little-endian words Compact holds in memory, and on a
// little-endian host a record inside an mmap'd file aliases straight into
// a *Compact without copying a byte. On big-endian hosts (or unaligned
// input) the same record decodes by copying, producing an identical set.
//
// Record layout (all little-endian, record start 8-byte aligned):
//
//	u32 byteLen    total record length, including this header and padding
//	u32 n          total cardinality
//	u32 nchunks
//	u32 reserved   must be zero
//	u64 × nchunks  chunk keys, strictly ascending
//	u16 × nchunks  per-chunk cardinality minus one (1..65536)
//	pad to 8
//	per chunk, in key order, each payload starting 8-aligned:
//	  cardinality <= arrayMaxLen: sorted u16 words, padded to 8
//	  cardinality >  arrayMaxLen: the 1024 u64 words of the chunk bitmap
//
// ViewStorage validates everything — lengths, key order, array ordering,
// bitmap cardinality — and returns errors, never panics, on truncated or
// corrupt input (fuzz-tested). Validation walks the payload words, which
// also serves the mmap reader's purpose of faulting a leaf's pages exactly
// once, at materialization.

// storageHeaderLen is the fixed record header size.
const storageHeaderLen = 16

// storageMaxChunkKey is the largest encodable chunk key.
const storageMaxChunkKey = (1 << (64 - chunkBits)) - 1

// hostLittleEndian reports whether the host stores multi-byte words
// little-endian; only then can storage payloads be aliased in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func pad8(n int) int { return (n + 7) &^ 7 }

// StorageSize returns the exact number of bytes AppendStorage will emit
// for c, letting writers plan section offsets without encoding twice.
func StorageSize(c *Compact) int {
	size := storageHeaderLen
	if c.Len() == 0 {
		return size
	}
	size = pad8(size + 10*len(c.keys)) // keys (8B) + cardinalities (2B)
	for i := range c.cts {
		if c.cts[i].bm != nil {
			size += bitmapWords * 8
		} else {
			size += pad8(2 * len(c.cts[i].arr))
		}
	}
	return size
}

// AppendStorage appends the storage record of c to dst and returns the
// extended slice. The caller must ensure len(dst) is a multiple of 8 so
// the record lands aligned; the record itself ends 8-aligned.
func AppendStorage(dst []byte, c *Compact) []byte {
	start := len(dst)
	var hdr [storageHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[4:], uint32(c.Len()))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(c.NumChunks()))
	dst = append(dst, hdr[:]...)
	if c.Len() > 0 {
		for _, key := range c.keys {
			dst = binary.LittleEndian.AppendUint64(dst, key)
		}
		for i := range c.cts {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(c.cts[i].n-1))
		}
		for len(dst)%8 != 0 {
			dst = append(dst, 0)
		}
		for i := range c.cts {
			ct := &c.cts[i]
			if ct.bm != nil {
				for _, w := range ct.bm {
					dst = binary.LittleEndian.AppendUint64(dst, w)
				}
				continue
			}
			for _, v := range ct.arr {
				dst = binary.LittleEndian.AppendUint16(dst, v)
			}
			for len(dst)%8 != 0 {
				dst = append(dst, 0)
			}
		}
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start))
	return dst
}

// ViewStorage decodes one storage record from the front of data, returning
// the set and the record's byte length. On a little-endian host with data
// 8-aligned (an mmap'd section), container payloads ALIAS data — the
// caller guarantees data stays mapped and is never written for as long as
// the returned set lives. Otherwise payloads are copied. Corrupt input
// returns an error, never panics.
func ViewStorage(data []byte) (*Compact, int, error) {
	return decodeStorage(data, hostLittleEndian && addrAligned8(data))
}

func addrAligned8(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	return uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

func decodeStorage(data []byte, alias bool) (*Compact, int, error) {
	if len(data) < storageHeaderLen {
		return nil, 0, wireErr("storage record truncated at header")
	}
	byteLen := int(binary.LittleEndian.Uint32(data))
	n := int(binary.LittleEndian.Uint32(data[4:]))
	nchunks := int(binary.LittleEndian.Uint32(data[8:]))
	if binary.LittleEndian.Uint32(data[12:]) != 0 {
		return nil, 0, wireErr("storage record reserved field not zero")
	}
	if byteLen < storageHeaderLen || byteLen > len(data) || byteLen%8 != 0 {
		return nil, 0, wireErr("storage record length %d out of range", byteLen)
	}
	if n == 0 || nchunks == 0 {
		if n != 0 || nchunks != 0 || byteLen != storageHeaderLen {
			return nil, 0, wireErr("storage record empty-set header inconsistent")
		}
		return &Compact{}, byteLen, nil
	}
	// Keys and cardinalities must fit the declared record; a bitmap chunk
	// holds at most 65536 cells, bounding n by the payload space.
	if nchunks > (byteLen-storageHeaderLen)/10 || n > nchunks<<chunkBits {
		return nil, 0, wireErr("storage record chunk count %d out of range", nchunks)
	}
	rec := data[:byteLen]
	keysOff := storageHeaderLen
	cardsOff := keysOff + 8*nchunks
	payOff := pad8(cardsOff + 2*nchunks)
	if payOff > byteLen {
		return nil, 0, wireErr("storage record header overruns payload")
	}
	c := &Compact{
		keys: make([]uint64, nchunks),
		cts:  make([]container, nchunks),
	}
	prevKey := ^uint64(0)
	for i := 0; i < nchunks; i++ {
		key := binary.LittleEndian.Uint64(rec[keysOff+8*i:])
		if (i > 0 && key <= prevKey) || key > storageMaxChunkKey {
			return nil, 0, wireErr("storage chunk keys not strictly ascending")
		}
		prevKey = key
		c.keys[i] = key
		card := int(binary.LittleEndian.Uint16(rec[cardsOff+2*i:])) + 1
		ct, next, err := decodeStorageContainer(rec, payOff, card, alias)
		if err != nil {
			return nil, 0, err
		}
		payOff = next
		c.cts[i] = ct
		c.n += card
	}
	if c.n != n {
		return nil, 0, wireErr("storage cardinality %d != declared %d", c.n, n)
	}
	if byteLen-payOff >= 8 {
		return nil, 0, wireErr("storage record has %d trailing bytes", byteLen-payOff)
	}
	return c, byteLen, nil
}

// decodeStorageContainer decodes one chunk payload at rec[off:], returning
// the container and the offset past the payload (and its padding).
func decodeStorageContainer(rec []byte, off, card int, alias bool) (container, int, error) {
	if card > arrayMaxLen {
		end := off + bitmapWords*8
		if end > len(rec) {
			return container{}, 0, wireErr("storage bitmap chunk truncated")
		}
		var bm *bitmap
		pop := 0
		if alias {
			bm = (*bitmap)(unsafe.Pointer(&rec[off]))
			for _, w := range bm {
				pop += bits.OnesCount64(w)
			}
		} else {
			bm = new(bitmap)
			for w := range bm {
				bm[w] = binary.LittleEndian.Uint64(rec[off+8*w:])
				pop += bits.OnesCount64(bm[w])
			}
		}
		if pop != card {
			return container{}, 0, wireErr("storage bitmap cardinality %d != declared %d", pop, card)
		}
		return container{bm: bm, n: card}, end, nil
	}
	end := off + 2*card
	if end > len(rec) {
		return container{}, 0, wireErr("storage array chunk truncated")
	}
	var arr []uint16
	if alias {
		arr = unsafe.Slice((*uint16)(unsafe.Pointer(&rec[off])), card)
		prev := -1
		for _, v := range arr {
			if int(v) <= prev {
				return container{}, 0, wireErr("storage array chunk not strictly increasing")
			}
			prev = int(v)
		}
	} else {
		arr = make([]uint16, card)
		prev := -1
		for k := range arr {
			v := binary.LittleEndian.Uint16(rec[off+2*k:])
			if int(v) <= prev {
				return container{}, 0, wireErr("storage array chunk not strictly increasing")
			}
			prev = int(v)
			arr[k] = v
		}
	}
	return container{arr: arr, n: card}, pad8(end), nil
}

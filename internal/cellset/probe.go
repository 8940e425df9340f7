package cellset

import (
	"math/bits"
	"slices"
)

// Probe is a query's cell set prepared for the OJSP rank pass: every
// chunk of the query is also held as a bitmap, so a leaf-union chunk is
// intersected with it by one bit test per cell (or one AND per word)
// instead of a merge of two sorted arrays. Under 1 % of the union cells in
// the chunks a query and a DITS-L leaf share are query cells, so a merge
// spends most of its steps, each on an unpredictable branch, on values
// that cannot match; probing an array against a bitmap is Roaring's answer
// to that skew (Lemire et al., Softw. Pract. Exp. 2016/2018).
//
// A probe is built once per query execution by NewProbe and returned by
// Release. Its bitmaps come from a free list and are cleared by walking
// the query's cells again, so a warm process allocates nothing for them.
// A probe is read-only between the two calls; the query it was built from
// must not change meanwhile.
type Probe struct {
	q *Compact
	// bms[i] is chunk q.keys[i] as a bitmap: the query's own for a bitmap
	// chunk, one of spare for an array chunk, nil for an array chunk past
	// maxProbeBitmaps.
	bms   []*bitmap
	spare []*bitmap // zeroed scratch bitmaps, kept across queries
}

const (
	// maxProbeBitmaps bounds the scratch bitmaps of one probe (512 KiB). A
	// query's array chunks past it keep to the container kernel of
	// AppendIntersectRanks, so a query spread thin over many chunks — the
	// gateway admits a million points — cannot make a probe of gigabytes.
	// The benchmark corpus's queries hold at most 21 chunks.
	maxProbeBitmaps = 64

	// probeGallopRatio is the length ratio from which a leaf array chunk
	// is galloped through by the query array's values instead of bit
	// tested cell by cell.
	probeGallopRatio = 32
)

// probes is the free list behind NewProbe. Its 16 slots cover a source's
// concurrent single queries or a batch of 16, whose queries each hold a
// probe for the whole batch; a probe that finds the list full is dropped,
// so at most 16 × 512 KiB of bitmaps stay retained. A channel, not a
// sync.Pool, so that a warm query allocates nothing under the race
// detector as well.
var probes = make(chan *Probe, 16)

// NewProbe returns a probe of q. Nil q is the empty set. The caller must
// Release it when done.
func NewProbe(q *Compact) *Probe {
	var p *Probe
	select {
	case p = <-probes:
	default:
		p = &Probe{}
	}
	p.q = q
	if q == nil {
		return p
	}
	p.bms = slices.Grow(p.bms[:0], len(q.keys))
	used := 0
	for i := range q.cts {
		ct := &q.cts[i]
		switch {
		case ct.bm != nil:
			p.bms = append(p.bms, ct.bm)
		case used == maxProbeBitmaps:
			p.bms = append(p.bms, nil)
		default:
			if used == len(p.spare) {
				p.spare = append(p.spare, new(bitmap))
			}
			bm := p.spare[used]
			used++
			for _, v := range ct.arr {
				bm[v>>6] |= 1 << (v & 63)
			}
			p.bms = append(p.bms, bm)
		}
	}
	return p
}

// Release clears the probe's scratch bitmaps and returns it to the free
// list. The probe must not be used afterwards.
func (p *Probe) Release() {
	if p.q != nil {
		for i := range p.q.cts {
			if ct := &p.q.cts[i]; ct.bm == nil && p.bms[i] != nil {
				for _, v := range ct.arr {
					p.bms[i][v>>6] = 0
				}
			}
		}
	}
	p.q = nil
	clear(p.bms)
	p.bms = p.bms[:0]
	select {
	case probes <- p:
	default:
	}
}

// AppendRanks appends to dst, in ascending order, the rank in c — the
// index in c.Set() — of every cell c shares with the probe's query, and
// returns the extended slice: exactly c.AppendIntersectRanks(q, dst). Per
// pair of chunks both hold, a bitmap chunk of c is ANDed with the probe's
// bitmap word by word; an array chunk of c is bit tested cell by cell,
// with no branch on a miss, unless it is probeGallopRatio times longer
// than the query's array chunk, which then gallops through it. A DITS-L
// leaf reads its Lemma 2 bound (the count) and its posting lists (the
// ranks) off this one pass. Allocation-free once dst has the capacity.
func (p *Probe) AppendRanks(c *Compact, dst []uint32) []uint32 {
	q := p.q
	if c.Len() == 0 || q.Len() == 0 {
		return dst
	}
	base := uint32(0) // cells of c in the chunks before keys[i]
	i, j := 0, 0
	for i < len(c.keys) && j < len(q.keys) {
		switch {
		case c.keys[i] == q.keys[j]:
			a, b, bm := &c.cts[i], &q.cts[j], p.bms[j]
			switch {
			case bm == nil:
				dst = appendRanks(dst, base, a, b)
			case a.bm != nil:
				dst = bitmapAppendRanks(dst, base, a.bm, bm)
			case b.bm == nil && len(a.arr) >= probeGallopRatio*len(b.arr):
				dst = arrAppendRanks(dst, base, a.arr, b.arr)
			default:
				dst = arrBitmapAppendRanks(dst, base, a.arr, bm)
			}
			base += uint32(a.n)
			i++
			j++
		case c.keys[i] < q.keys[j]:
			base += uint32(c.cts[i].n)
			i++
		default:
			j++
		}
	}
	return dst
}

// bitmapAppendRanks appends base plus the rank within a of every value a
// shares with b, two bitmaps, ascending.
func bitmapAppendRanks(dst []uint32, base uint32, a, b *bitmap) []uint32 {
	for w, aw := range a {
		for and := aw & b[w]; and != 0; and &= and - 1 {
			bit := and & -and
			dst = append(dst, base+uint32(bits.OnesCount64(aw&(bit-1))))
		}
		base += uint32(bits.OnesCount64(aw))
	}
	return dst
}

// arrBitmapAppendRanks appends base plus the index of every value of arr
// whose bit is set in bm. A block of arr at a time, each index is written
// to a stack buffer unconditionally and kept by advancing its length by
// the bit, so a miss costs no branch, and dst grows only by the hits.
func arrBitmapAppendRanks(dst []uint32, base uint32, arr []uint16, bm *bitmap) []uint32 {
	var buf [256]uint32
	for len(arr) > 0 {
		blk := arr[:min(len(arr), len(buf))]
		n := 0
		for i, v := range blk {
			buf[n] = base + uint32(i)
			n += int(bm[v>>6] >> (v & 63) & 1)
		}
		dst = append(dst, buf[:n]...)
		base += uint32(len(blk))
		arr = arr[len(blk):]
	}
	return dst
}

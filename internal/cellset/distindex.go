package cellset

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"dits/internal/geo"
)

// DistIndex answers repeated "is this set within δ of q?" questions against
// a set q — the access pattern of connectivity verification, where
// FindConnectSet probes many candidate datasets against the same query
// cells. It groups q's cells into Morton blocks of 2^L × 2^L cells, L the
// smallest level with 2^L ≥ ⌈δ⌉, so any pair of cells within δ lies in the
// same or an adjacent block. A cell's block is c >> 2L, a prefix of its
// z-order ID: q, sorted like every Set, is already grouped by block in key
// order, and the index keeps q itself as its cell store, recording where
// each occupied block's cells start.
//
// Beside the cells the index holds near, every block within one block of an
// occupied one. It is a sorted list of super-blocks — 8×8 blocks, the next
// 6-bit prefix — each with a 64-bit mask of its near blocks, a mask of its
// occupied blocks and the rank of its first occupied block among all of
// them. A probe walks the candidate's sorted cells against near: cells of
// far blocks are skipped by binary-search jumps on the candidate, far
// super-blocks by jumps on near, and only a cell in a near block is
// measured, against the indexed cells of the 3×3 blocks around it, found
// once per block by rank: the super-block's base rank plus a popcount of
// its occupied mask. A built index is read-only under Connected /
// ConnectedCompact / NearRect / Bounds, so any number of goroutines may
// probe it; Add and Rebuild change it and need exclusive access.
type DistIndex struct {
	d2    float64
	shift uint   // 2L: cell c lies in block c >> shift, block 0 for all at L = 32
	subs  uint64 // the blocks of a super-block that exist on the grid
	// superX holds the x bits of a super-block key that exist on the grid,
	// superX<<1 its y bits.
	superX uint64
	cells  Set      // the indexed cells, ascending; may alias the caller's Set
	store  Set      // the buffer Rebuild decodes into, kept across rebuilds
	keys   []uint64 // near super-blocks, ascending: block >> 6
	masks  []uint64 // bit k of masks[i]: block keys[i]<<6 | k is near
	occ    []uint64 // bit k of occ[i]: block keys[i]<<6 | k holds cells
	ranks  []uint64 // the occupied blocks in the super-blocks before keys[i]
	// starts[r] is the index in cells of the r-th occupied block's first
	// cell, and starts[len(starts)-1] is len(cells).
	starts []uint64
	words  []uint64 // the backing array of keys, masks, occ, ranks and starts
}

// mortonX selects the x bits of a z-order ID; the y bits are mortonX << 1.
const mortonX = 0x5555555555555555

// nearWord is one super-block of near while a build collects them, or one
// occupied super-block with its occupied blocks.
type nearWord struct{ key, mask uint64 }

// nbrMasks[k][d] is the part of block k's 3×3 neighbourhood (k its position
// in its super-block) that falls into the super-block at offset
// (d%3-1, d/3-1), as a mask over that super-block's blocks; d = 4 is k's own
// super-block.
var nbrMasks = func() (t [64][9]uint64) {
	for k := range t {
		u, v := geo.ZDecode(uint64(k))
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x, y := int(u)+dx, int(v)+dy
				d := (y>>3+1)*3 + x>>3 + 1 // x>>3 is -1, 0 or 1
				t[k][d] |= 1 << geo.ZEncode(uint32(x&7), uint32(y&7))
			}
		}
	}
	return t
}()

// colMasks[a][b] (rowMasks[a][b]) masks the blocks of a super-block whose x
// (y) position lies in a..b.
var colMasks, rowMasks = func() (col, row [8][8]uint64) {
	for k := range uint64(64) {
		u, v := geo.ZDecode(k)
		for a := range 8 {
			for b := a; b < 8; b++ {
				if uint32(a) <= u && u <= uint32(b) {
					col[a][b] |= 1 << k
				}
				if uint32(a) <= v && v <= uint32(b) {
					row[a][b] |= 1 << k
				}
			}
		}
	}
	return col, row
}()

// buildScratch holds what a build collects before the index keeps it: the
// block starts, the occupied super-blocks and the two buffers the near
// words are sorted between. Builds borrow one from scratchPool, so a build
// allocates only what the index keeps, and a rebuild that does not outgrow
// the index's buffers nothing.
type buildScratch struct {
	starts     []uint64
	owns, a, b []nearWord
	counts     [256]uint32 // sortWords' digit counts, off the goroutine's stack
}

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// NewDistIndex builds the index over q for threshold delta. A nil index is
// returned for an empty q or a negative delta: Connected on it is false.
// The index keeps q, which must not be modified while the index is in use;
// like every Set it must be ascending.
func NewDistIndex(q Set, delta float64) *DistIndex {
	if len(q) == 0 || !(delta >= 0) { // NaN too
		return nil
	}
	ix := &DistIndex{}
	ix.setDelta(delta)
	ix.build(q)
	return ix
}

// Rebuild makes ix the index over cells for threshold delta, reusing the
// cell store and the near array of its earlier builds: a loop that indexes
// a new cell set every round allocates them only while its sets grow.
// cells is decoded into that store, so the caller may drop it. Over an
// empty set or at a negative delta the index is empty and, like a nil one,
// connects nothing.
func (ix *DistIndex) Rebuild(cells *Compact, delta float64) {
	ix.store = cells.AppendCells(emptied(ix.store, cells.Len()))
	if len(ix.store) == 0 || !(delta >= 0) {
		ix.cells, ix.starts, ix.keys = nil, nil, nil
		return
	}
	ix.setDelta(delta)
	ix.build(ix.store)
}

// emptied returns s emptied, with room for n elements: s itself when it
// has it, else a new array with a quarter to spare, so the next rounds of a
// loop, whose sets vary, seldom outgrow it. Unlike slices.Grow it copies
// nothing, and allocates once under the race detector too.
func emptied[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n+n/4)
	}
	return s[:0]
}

// setDelta sets the block level and the grid masks for threshold delta.
func (ix *DistIndex) setDelta(delta float64) {
	// At a side of the grid's full width every cell shares block 0;
	// clamping there keeps the conversion defined for an infinite delta.
	side := max(uint64(math.Ceil(math.Min(delta, 1<<32))), 1)
	level := uint(bits.Len64(side - 1))
	ix.d2, ix.shift, ix.subs, ix.superX = delta*delta, 2*level, ^uint64(0), 0
	if gridBits := 32 - level; gridBits < 3 {
		// Fewer than 8 blocks a side: one super-block, partly off the grid.
		ix.subs = 1<<(1<<(2*gridBits)) - 1
	} else {
		ix.superX = mortonX & (1<<(2*(gridBits-3)) - 1)
	}
}

// Add extends the indexed set with the cells of a container set: the merge
// step of the paper's CoverageSearch grows the query side. An index over no
// cells stays empty.
func (ix *DistIndex) Add(cells *Compact) {
	if ix == nil || len(ix.cells) == 0 || cells.Len() == 0 {
		return
	}
	ix.build(ix.cells.Union(cells.Set()))
}

// build indexes cells, a non-empty Set.
func (ix *DistIndex) build(cells Set) {
	sc := scratchPool.Get().(*buildScratch)
	defer scratchPool.Put(sc)
	// One pass over the cells finds where each occupied block starts —
	// starts[n] is written at every cell until block n begins, so the
	// pass does not branch on it — and one over those blocks the occupied
	// blocks of each super-block.
	shift := ix.shift
	starts := emptied(sc.starts, len(cells)+1)[:len(cells)+1]
	n, prev := 0, ^(cells[0] >> shift)
	for i, c := range cells {
		b := c >> shift
		starts[n] = uint64(i)
		if b != prev {
			n++
		}
		prev = b
	}
	starts[n] = uint64(len(cells))
	starts = starts[:n+1]
	owns := emptied(sc.owns, n)
	for _, i := range starts[:n] {
		b := cells[i] >> shift
		if k := len(owns); k > 0 && owns[k-1].key == b>>6 {
			owns[k-1].mask |= 1 << (b & 63)
		} else {
			owns = append(owns, nearWord{b >> 6, 1 << (b & 63)})
		}
	}
	sc.starts, sc.owns = starts, owns

	// Each occupied super-block ORs its blocks' neighbourhoods into
	// itself and the eight around it.
	words := emptied(sc.a, 9*len(owns))
	for _, o := range owns {
		var near [9]uint64
		for m := o.mask; m != 0; m &= m - 1 {
			for d, nm := range &nbrMasks[bits.TrailingZeros64(m)] {
				near[d] |= nm
			}
		}
		for d, m := range near {
			if m == 0 {
				continue
			}
			if d == 4 {
				words = append(words, nearWord{o.key, m & ix.subs})
			} else if key, ok := ix.superStep(o.key, d%3-1, d/3-1); ok {
				words = append(words, nearWord{key, m})
			}
		}
	}
	if cap(sc.b) < len(words) {
		sc.b = make([]nearWord, cap(words))
	}
	sorted, other := sortWords(words, sc.b[:len(words)], &sc.counts)
	sc.a, sc.b = sorted, other

	k := 0
	for i := range sorted {
		if i == 0 || sorted[i].key != sorted[i-1].key {
			k++
		}
	}
	// One array holds what the index keeps besides the cells.
	size := 4*k + n + 1
	ix.words = emptied(ix.words, size)
	buf := ix.words[:size]
	clear(buf[:4*k])
	ix.keys, ix.masks, ix.occ, ix.ranks = buf[:k:k], buf[k:2*k:2*k], buf[2*k:3*k:3*k], buf[3*k:4*k:4*k]
	ix.starts = buf[4*k:]
	copy(ix.starts, starts)
	j := -1
	for i, w := range sorted {
		if i == 0 || w.key != sorted[i-1].key {
			j++
			ix.keys[j] = w.key
		}
		ix.masks[j] |= w.mask
	}
	// Every occupied super-block is near; both lists ascend.
	rank, o := 0, 0
	for j, key := range ix.keys {
		ix.ranks[j] = uint64(rank)
		if o < len(owns) && owns[o].key == key {
			ix.occ[j] = owns[o].mask
			rank += bits.OnesCount64(owns[o].mask)
			o++
		}
	}
	ix.cells = cells
}

// superStep returns the key of the super-block at offset (ox, oy) from
// super-block key, each -1, 0 or 1, and false when that one is off the grid.
// The x and y bits step apart: filling the other bits with ones carries an
// increment across them, and masking clears what a decrement borrowed.
func (ix *DistIndex) superStep(key uint64, ox, oy int) (uint64, bool) {
	mx, my := ix.superX, ix.superX<<1
	x, y := key&mx, key&my
	switch {
	case ox < 0 && x == 0, ox > 0 && x == mx, oy < 0 && y == 0, oy > 0 && y == my:
		return 0, false
	}
	switch ox {
	case -1:
		x = (x - 1) & mx
	case 1:
		x = ((x | ^mx) + 1) & mx
	}
	switch oy {
	case -1:
		y = (y - 1) & my
	case 1:
		y = ((y | ^my) + 1) & my
	}
	return x | y, true
}

// sortWords sorts words by key with an LSD radix over the key bits that
// vary among them, in as few passes of at most 8 bits as cover them, moving
// them between words and tmp (of the same length) and counting digits in
// counts. It returns the sorted slice and the other buffer.
func sortWords(words, tmp []nearWord, counts *[256]uint32) (sorted, other []nearWord) {
	var diff uint64
	for _, w := range words {
		diff |= w.key ^ words[0].key
	}
	n := uint(bits.Len64(diff))
	if n == 0 {
		return words, tmp
	}
	width := (n + (n+7)/8 - 1) / ((n + 7) / 8)
	mask := uint64(1)<<width - 1
	for sh := uint(0); sh < n; sh += width {
		if diff>>sh&mask == 0 {
			continue
		}
		count := counts[:mask+1]
		clear(count)
		for _, w := range words {
			count[w.key>>sh&mask]++
		}
		pos := uint32(0)
		for i, k := range count {
			count[i], pos = pos, pos+k
		}
		for _, w := range words {
			d := w.key >> sh & mask
			tmp[count[d]] = w
			count[d]++
		}
		words, tmp = tmp, words
	}
	return words, tmp
}

// Connected reports whether any cell of s lies within delta of an indexed
// cell — exactly the directly-connected relation of Definition 7.
func (ix *DistIndex) Connected(s Set) bool {
	if ix == nil {
		return false
	}
	w := walker{ix: ix}
	for i := 0; i < len(s); {
		start, ok := w.next(s[i])
		switch {
		case !ok:
			return false
		case s[i] < start:
			i += gallop(s[i:], start)
		case w.within(s[i]):
			return true
		default:
			i++
		}
	}
	return false
}

// ConnectedCompact is Connected over a container set. Like Connected it
// jumps over what lies in no near block: a chunk before the next near block
// is skipped whole, an array container is galloped through, and a bitmap
// container is resumed at the next near block's word.
func (ix *DistIndex) ConnectedCompact(s *Compact) bool {
	if ix == nil || s.Len() == 0 {
		return false
	}
	w := walker{ix: ix}
	for i := 0; i < len(s.keys); {
		key := s.keys[i]
		start, ok := w.next(key << chunkBits)
		switch {
		case !ok:
			return false
		case start>>chunkBits != key:
			i += gallop(s.keys[i:], start>>chunkBits)
			continue
		}
		if hit, more := w.chunk(&s.cts[i], key<<chunkBits, start); hit || !more {
			return hit
		}
		i++
	}
	return false
}

// chunk walks the cells of one container, whose chunk starts at cell base,
// from start on. It reports whether one of them is within delta of an
// indexed cell, and whether a near block lies past the chunk.
func (w *walker) chunk(ct *container, base, start uint64) (hit, more bool) {
	if ct.bm == nil {
		arr := ct.arr
		for j := gallop(arr, uint16(start&chunkMask)); j < len(arr); {
			c := base | uint64(arr[j])
			start, ok := w.next(c)
			switch {
			case !ok:
				return false, false
			case start>>chunkBits != base>>chunkBits:
				return false, true
			case c < start:
				j += gallop(arr[j:], uint16(start&chunkMask))
			case w.within(c):
				return true, true
			default:
				j++
			}
		}
		return false, true
	}
	for v := start & chunkMask; v <= chunkMask; {
		k := v >> 6
		word := ct.bm[k] &^ (1<<(v&63) - 1)
		for word == 0 {
			if k++; k == bitmapWords {
				return false, true
			}
			word = ct.bm[k]
		}
		v = k<<6 | uint64(bits.TrailingZeros64(word))
		c := base | v
		start, ok := w.next(c)
		switch {
		case !ok:
			return false, false
		case start>>chunkBits != base>>chunkBits:
			return false, true
		case c < start:
			v = start & chunkMask
		case w.within(c):
			return true, true
		default:
			v++
		}
	}
	return false, true
}

// Bounds returns the MBR of the indexed cells, as Set.Bounds does, and
// false for an index over no cells. It narrows the extremes from the
// occupied super-blocks to their occupied blocks, and decodes only the
// cells of the blocks on the extreme block rows and columns.
func (ix *DistIndex) Bounds() (minX, minY, maxX, maxY uint32, ok bool) {
	if ix == nil || len(ix.cells) == 0 {
		return 0, 0, 0, 0, false
	}
	sx0, sy0, sx1, sy1 := ^uint32(0), ^uint32(0), uint32(0), uint32(0)
	for i, key := range ix.keys {
		if ix.occ[i] != 0 {
			sx, sy := geo.ZDecode(key)
			sx0, sy0, sx1, sy1 = min(sx0, sx), min(sy0, sy), max(sx1, sx), max(sy1, sy)
		}
	}
	bx0, by0, bx1, by1 := ^uint32(0), ^uint32(0), uint32(0), uint32(0)
	for i, key := range ix.keys {
		if ix.occ[i] == 0 {
			continue
		}
		sx, sy := geo.ZDecode(key)
		if sx != sx0 && sx != sx1 && sy != sy0 && sy != sy1 {
			continue
		}
		u0, u1 := span(ix.occ[i], &colMasks)
		v0, v1 := span(ix.occ[i], &rowMasks)
		bx0, by0 = min(bx0, sx<<3|u0), min(by0, sy<<3|v0)
		bx1, by1 = max(bx1, sx<<3|u1), max(by1, sy<<3|v1)
	}
	// Every cell bounds the set from inside, and each extreme lies in a
	// block on an extreme row or column.
	minX, minY = ^uint32(0), ^uint32(0)
	for i, key := range ix.keys {
		if ix.occ[i] == 0 {
			continue
		}
		sx, sy := geo.ZDecode(key)
		if sx != bx0>>3 && sx != bx1>>3 && sy != by0>>3 && sy != by1>>3 {
			continue
		}
		r := ix.ranks[i]
		for m := ix.occ[i]; m != 0; m, r = m&(m-1), r+1 {
			u, v := geo.ZDecode(uint64(bits.TrailingZeros64(m)))
			if bx, by := sx<<3|u, sy<<3|v; bx != bx0 && bx != bx1 && by != by0 && by != by1 {
				continue
			}
			for _, c := range ix.cells[ix.starts[r]:ix.starts[r+1]] {
				x, y := geo.ZDecode(c)
				minX, minY = min(minX, x), min(minY, y)
				maxX, maxY = max(maxX, x), max(maxY, y)
			}
		}
	}
	return minX, minY, maxX, maxY, true
}

// span returns the least and the greatest a with m & masks[a][a] nonzero,
// for a nonzero mask m of blocks: with colMasks the extreme columns of m's
// blocks in their super-block, with rowMasks its extreme rows.
func span(m uint64, masks *[8][8]uint64) (lo, hi uint32) {
	for m&masks[lo][lo] == 0 {
		lo++
	}
	for hi = 7; m&masks[hi][hi] == 0; hi-- {
	}
	return lo, hi
}

// NearRect reports whether r, a rectangle in grid coordinates, overlaps a
// near block: one within one block of an occupied block. When it does not,
// no cell inside r is within delta of an indexed cell, so a caller holding a
// candidate's MBR can skip decoding its cells altogether. True promises
// nothing: the cell-exact answer is Connected's.
func (ix *DistIndex) NearRect(r geo.Rect) bool {
	const maxCell = 1<<32 - 1
	if ix == nil || !(r.MinX <= r.MaxX && r.MinY <= r.MaxY) ||
		r.MaxX < 0 || r.MaxY < 0 || r.MinX > maxCell || r.MinY > maxCell {
		return false
	}
	// Clamped to the grid, where cells are, every conversion is in range
	// and truncation is a floor.
	block := func(v float64) uint32 {
		return uint32(uint64(math.Min(math.Max(v, 0), maxCell)) >> (ix.shift / 2))
	}
	bx0, bx1, by0, by1 := block(r.MinX), block(r.MaxX), block(r.MinY), block(r.MaxY)
	// Every super-block inside the rectangle has a key between those of its
	// lower-left and upper-right corners.
	hi := geo.ZEncode(bx1>>3, by1>>3)
	i, _ := slices.BinarySearch(ix.keys, geo.ZEncode(bx0>>3, by0>>3))
	for ; i < len(ix.keys) && ix.keys[i] <= hi; i++ {
		sx, sy := geo.ZDecode(ix.keys[i])
		if sx < bx0>>3 || sx > bx1>>3 || sy < by0>>3 || sy > by1>>3 {
			continue
		}
		x0, y0 := sx<<3, sy<<3
		cols := colMasks[max(bx0, x0)-x0][min(bx1, x0|7)-x0]
		rows := rowMasks[max(by0, y0)-y0][min(by1, y0|7)-y0]
		if ix.masks[i]&cols&rows != 0 {
			return true
		}
	}
	return false
}

// walker is one probe's position in the index: the near super-blocks
// before keys[j] lie before every cell seen so far. Of the block last
// entered, in super-block keys[own], rng[d] holds the indexed cells of
// neighbour d once bit d of looked is set; of keys[own], sups[s] holds the
// index in keys of the super-block at offset (s%3-1, s/3-1), -1 when that
// one is not near, once bit s of supsSet is set.
type walker struct {
	ix      *DistIndex
	j, own  int
	entered bool
	block   uint64
	looked  uint16
	rng     [9][2]uint32
	supsSet uint16
	sups    [9]int32
}

// neighbours lists the 3×3 blocks around a block: its own first, then those
// sharing an edge — the order in which a cell likeliest finds a partner.
var neighbours = [9][2]int{{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, -1}, {1, -1}, {-1, 1}, {1, 1}}

// nbrSteps[k][d] locates neighbour d of the block at position k in its
// super-block: its position there in the low 6 bits, and above them the
// super-block it falls in, as the offset (s%3-1, s/3-1) from k's own.
var nbrSteps = func() (t [64][9]uint16) {
	for k := range t {
		u, v := geo.ZDecode(uint64(k))
		for d, o := range neighbours {
			x, y := int(u)+o[0], int(v)+o[1]
			s := (y>>3+1)*3 + x>>3 + 1 // x>>3 is -1, 0 or 1
			t[k][d] = uint16(s<<6) | uint16(geo.ZEncode(uint32(x&7), uint32(y&7)))
		}
	}
	return t
}()

// next returns the first cell value at or after c that lies in a near
// block — c itself when c's block is near, with keys[j] its super-block —
// and false when there is none.
func (w *walker) next(c uint64) (uint64, bool) {
	ix := w.ix
	b := c >> ix.shift
	sup := b >> 6
	if w.j < len(ix.keys) && ix.keys[w.j] < sup {
		w.j += gallop(ix.keys[w.j:], sup)
	}
	for ; w.j < len(ix.keys); w.j++ {
		key, m := ix.keys[w.j], ix.masks[w.j]
		if key > sup {
			return (key<<6 | uint64(bits.TrailingZeros64(m))) << ix.shift, true
		}
		if m >>= b & 63; m&1 != 0 {
			return c, true
		} else if m != 0 {
			return (b + uint64(bits.TrailingZeros64(m))) << ix.shift, true
		}
	}
	return 0, false
}

// within reports whether cell c, which next has just returned, is within
// delta of an indexed cell. A neighbour block wholly farther than delta
// from c is skipped; the cells of the others are looked up when first
// needed, once per block entered.
func (w *walker) within(c uint64) bool {
	ix := w.ix
	if b := c >> ix.shift; !w.entered || b != w.block {
		if w.j != w.own {
			w.own, w.supsSet = w.j, 0
		}
		w.entered, w.block, w.looked = true, b, 0
	}
	x, y := geo.ZDecode(c)
	fx, fy := float64(x), float64(y)
	// The squared distance from c to the blocks a step left, right, down
	// and up, from c's offsets inside its block, and to the corners by
	// their sums: reach marks the neighbours within delta, in the order of
	// neighbours.
	side := int64(1) << (ix.shift / 2)
	u, v, fs := float64(int64(x)&(side-1)), float64(int64(y)&(side-1)), float64(side)
	gl, gr, gd, gu, d2 := (u+1)*(u+1), (fs-u)*(fs-u), (v+1)*(v+1), (fs-v)*(fs-v), ix.d2
	reach := uint(1)
	if gl <= d2 {
		reach |= 1 << 1
	}
	if gr <= d2 {
		reach |= 1 << 2
	}
	if gd <= d2 {
		reach |= 1 << 3
	}
	if gu <= d2 {
		reach |= 1 << 4
	}
	if gl+gd <= d2 {
		reach |= 1 << 5
	}
	if gr+gd <= d2 {
		reach |= 1 << 6
	}
	if gl+gu <= d2 {
		reach |= 1 << 7
	}
	if gr+gu <= d2 {
		reach |= 1 << 8
	}
	for ; reach != 0; reach &= reach - 1 {
		d := bits.TrailingZeros(reach)
		if w.looked&(1<<d) == 0 {
			w.look(d)
		}
		for _, p := range ix.cells[w.rng[d][0]:w.rng[d][1]] {
			px, py := geo.ZDecode(p)
			dx, dy := float64(px)-fx, float64(py)-fy
			if dx*dx+dy*dy <= ix.d2 {
				return true
			}
		}
	}
	return false
}

// look finds the indexed cells of neighbour d of the block entered: the
// run of cells of that block, found by its rank among the occupied blocks,
// and empty when the block holds none or is off the grid.
func (w *walker) look(d int) {
	ix := w.ix
	w.looked |= 1 << d
	w.rng[d] = [2]uint32{}
	step := nbrSteps[w.block&63][d]
	i := w.own
	if s := int(step >> 6); s != 4 {
		if w.supsSet&(1<<s) == 0 {
			w.supsSet |= 1 << s
			w.sups[s] = -1
			// An occupied block's super-block is near, so one missing
			// from near holds no cells.
			if key, ok := ix.superStep(ix.keys[i], s%3-1, s/3-1); ok {
				if k, found := slices.BinarySearch(ix.keys, key); found {
					w.sups[s] = int32(k)
				}
			}
		}
		if i = int(w.sups[s]); i < 0 {
			return
		}
	}
	bit := uint64(1) << (step & 63)
	if ix.occ[i]&bit == 0 {
		return
	}
	r := ix.ranks[i] + uint64(bits.OnesCount64(ix.occ[i]&(bit-1)))
	w.rng[d] = [2]uint32{uint32(ix.starts[r]), uint32(ix.starts[r+1])}
}

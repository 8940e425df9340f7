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
// order, and the index keeps q itself as its cell store.
//
// Beside the cells the index holds near, every block within one block of an
// occupied one. It is a sorted list of super-blocks — 8×8 blocks, the next
// 6-bit prefix — each with a 64-bit mask of its near blocks. A probe walks
// the candidate's sorted cells against near: cells of far blocks are skipped
// by binary-search jumps on the candidate, far super-blocks by jumps on
// near, and only a cell in a near block is measured, against the indexed
// cells of the 3×3 blocks around it, looked up once per block. A built index
// is read-only under Connected / ConnectedCompact / NearRect, so any number
// of goroutines may probe it; Add and AddCompact rebuild it and need
// exclusive access.
type DistIndex struct {
	d2    float64
	shift uint   // 2L: cell c lies in block c >> shift, block 0 for all at L = 32
	last  int64  // largest block coordinate, 2^(32-L) - 1
	subs  uint64 // the blocks of a super-block that exist on the grid
	// superX holds the x bits of a super-block key that exist on the grid,
	// superX<<1 its y bits.
	superX uint64
	cells  Set      // the indexed cells, ascending; may alias the caller's Set
	keys   []uint64 // near super-blocks, ascending: block >> 6
	masks  []uint64 // bit k of masks[i]: block keys[i]<<6 | k is near
}

// mortonX selects the x bits of a z-order ID; the y bits are mortonX << 1.
const mortonX = 0x5555555555555555

// nearWord is one super-block of near while a build collects them.
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

// nearScratch holds the two buffers a build sorts its near words between.
// Builds borrow one from scratchPool, so a build allocates only what the
// index keeps.
type nearScratch struct{ a, b []nearWord }

var scratchPool = sync.Pool{New: func() any { return new(nearScratch) }}

// NewDistIndex builds the index over q for threshold delta. A nil index is
// returned for an empty q or a negative delta: Connected on it is false.
// The index keeps q, which must not be modified while the index is in use;
// like every Set it must be ascending.
func NewDistIndex(q Set, delta float64) *DistIndex {
	if len(q) == 0 || delta < 0 || math.IsNaN(delta) {
		return nil
	}
	// At a side of the grid's full width every cell shares block 0;
	// clamping there keeps the conversion defined for an infinite delta.
	side := max(uint64(math.Ceil(math.Min(delta, 1<<32))), 1)
	level := uint(bits.Len64(side - 1))
	ix := &DistIndex{d2: delta * delta, shift: 2 * level, last: 1<<(32-level) - 1, subs: ^uint64(0)}
	if gridBits := 32 - level; gridBits < 3 {
		// Fewer than 8 blocks a side: one super-block, partly off the grid.
		ix.subs = 1<<(1<<(2*gridBits)) - 1
	} else {
		ix.superX = mortonX & (1<<(2*(gridBits-3)) - 1)
	}
	ix.build(q)
	return ix
}

// Add extends the indexed set with more cells, which may come in any order
// and repeat: the merge step of the paper's CoverageSearch grows the query
// side.
func (ix *DistIndex) Add(cells Set) {
	if ix == nil || len(cells) == 0 {
		return
	}
	ix.build(ix.cells.Union(New(cells...)))
}

// AddCompact extends the indexed set with the cells of a container set.
func (ix *DistIndex) AddCompact(cells *Compact) {
	if ix == nil || cells.Len() == 0 {
		return
	}
	ix.build(ix.cells.Union(cells.Set()))
}

// build indexes cells, a non-empty Set.
func (ix *DistIndex) build(cells Set) {
	sc := scratchPool.Get().(*nearScratch)
	defer scratchPool.Put(sc)
	words := sc.a[:0]
	own := -1 // words[own] is the last block's own super-block
	for i, c := range cells {
		b := c >> ix.shift
		if i > 0 && b == cells[i-1]>>ix.shift {
			continue
		}
		sup, nbr := b>>6, &nbrMasks[b&63]
		// Blocks ascend, so their own super-blocks do: merge in place.
		if own >= 0 && words[own].key == sup {
			words[own].mask |= nbr[4] & ix.subs
		} else {
			own = len(words)
			words = append(words, nearWord{sup, nbr[4] & ix.subs})
		}
		for d, m := range nbr {
			if d == 4 || m == 0 {
				continue
			}
			if key, ok := ix.superStep(sup, d%3-1, d/3-1); ok {
				words = append(words, nearWord{key, m})
			}
		}
	}
	if cap(sc.b) < len(words) {
		sc.b = make([]nearWord, cap(words))
	}
	sorted, other := sortWords(words, sc.b[:len(words)])
	sc.a, sc.b = sorted, other

	n := 0
	for i := range sorted {
		if i == 0 || sorted[i].key != sorted[i-1].key {
			n++
		}
	}
	buf := make([]uint64, 2*n)
	ix.cells, ix.keys, ix.masks = cells, buf[:n:n], buf[n:]
	j := -1
	for i, w := range sorted {
		if i == 0 || w.key != sorted[i-1].key {
			j++
			ix.keys[j] = w.key
		}
		ix.masks[j] |= w.mask
	}
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
// vary among them, moving them between words and tmp (of the same length).
// It returns the sorted slice and the other buffer.
func sortWords(words, tmp []nearWord) (sorted, other []nearWord) {
	var diff uint64
	for _, w := range words {
		diff |= w.key ^ words[0].key
	}
	for sh := uint(0); sh < uint(bits.Len64(diff)); sh += 8 {
		if diff>>sh&0xff == 0 {
			continue
		}
		var count [256]int
		for _, w := range words {
			count[w.key>>sh&0xff]++
		}
		pos := 0
		for i, n := range count {
			count[i], pos = pos, pos+n
		}
		for _, w := range words {
			d := w.key >> sh & 0xff
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

// ConnectedCompact is Connected over a container set.
func (ix *DistIndex) ConnectedCompact(s *Compact) bool {
	if ix == nil || s.Len() == 0 {
		return false
	}
	w := walker{ix: ix}
	hit := false
	s.ForEach(func(c uint64) bool {
		start, ok := w.next(c)
		if !ok {
			return false
		}
		if c >= start {
			hit = w.within(c)
		}
		return !hit
	})
	return hit
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
// entered, at (bx, by), rng[d] holds the indexed cells of neighbour d once
// bit d of looked is set.
type walker struct {
	ix      *DistIndex
	j       int
	entered bool
	block   uint64
	bx, by  int64
	looked  uint16
	rng     [9][2]int
}

// neighbours lists the 3×3 blocks around a block: its own first, then those
// sharing an edge — the order in which a cell likeliest finds a partner.
var neighbours = [9][2]int64{{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, -1}, {1, -1}, {-1, 1}, {1, 1}}

// next returns the first cell value at or after c that lies in a near
// block — c itself when c's block is near — and false when there is none.
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

// within reports whether cell c, in a near block, is within delta of an
// indexed cell. A neighbour block wholly farther than delta from c is
// skipped; the cells of the others are looked up when first needed, once
// per block entered.
func (w *walker) within(c uint64) bool {
	ix := w.ix
	if b := c >> ix.shift; !w.entered || b != w.block {
		x, y := geo.ZDecode(b)
		w.entered, w.block, w.bx, w.by, w.looked = true, b, int64(x), int64(y), 0
	}
	x, y := geo.ZDecode(c)
	fx, fy := float64(x), float64(y)
	level := ix.shift / 2
	// c's offsets inside its block, and the side of a block.
	u, v, side := int64(x)-w.bx<<level, int64(y)-w.by<<level, int64(1)<<level
	for d, o := range neighbours {
		gx, gy := float64(gap(o[0], u, side)), float64(gap(o[1], v, side))
		if gx*gx+gy*gy > ix.d2 {
			continue
		}
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

// gap is the distance along one axis from a cell at offset u inside its
// block to the block at step o (-1, 0 or 1) on that axis.
func gap(o, u, side int64) int64 {
	switch o {
	case -1:
		return u + 1
	case 1:
		return side - u
	}
	return 0
}

// look finds the indexed cells of neighbour d of the block entered: the run
// of cells whose block is that neighbour's, empty when it is off the grid.
func (w *walker) look(d int) {
	ix := w.ix
	w.looked |= 1 << d
	w.rng[d] = [2]int{}
	nx, ny := w.bx+neighbours[d][0], w.by+neighbours[d][1]
	if nx < 0 || ny < 0 || nx > ix.last || ny > ix.last {
		return
	}
	nb := geo.ZEncode(uint32(nx), uint32(ny))
	lo, _ := slices.BinarySearch(ix.cells, nb<<ix.shift)
	hi := len(ix.cells)
	// The next block starts at (nb+1) << shift, which wraps to 0 past the
	// last cell of the grid.
	if end := (nb + 1) << ix.shift; end != 0 {
		hi = lo + gallop(ix.cells[lo:], end)
	}
	w.rng[d] = [2]int{lo, hi}
}

package cellset

import (
	"math/bits"

	"dits/internal/geo"
)

// A chunk key is the z-order code of a 256×256 block of cells: the low 16
// bits of a cell ID interleave the low 8 bits of its x and y, so the key
// interleaves the rest. One decode of the key therefore places every cell
// of the chunk, which is what lets a clip keep or drop whole chunks and
// filter cell by cell only along the rectangle's edges.

// chunkSide is the side of a chunk's block in cells.
const chunkSide = 1 << (chunkBits / 2)

// Span is an inclusive grid-coordinate rectangle [X0,X1]×[Y0,Y1]: the cells
// a clip keeps, or a region an offer's guard watches (Meets).
type Span struct{ X0, Y0, X1, Y1 uint32 }

// spanOf returns the span of r under g, clamped to the grid as
// Grid.RectCoords clamps it.
func spanOf(g geo.Grid, r geo.Rect) Span {
	x0, y0, x1, y1 := g.RectCoords(r)
	return Span{x0, y0, x1, y1}
}

// contains reports whether the cell lies in the span.
func (sp Span) contains(cell uint64) bool {
	x, y := geo.ZDecode(cell)
	return x >= sp.X0 && x <= sp.X1 && y >= sp.Y0 && y <= sp.Y1
}

// Where a chunk's block lies against a span.
const (
	chunkAcross  = iota // on the span's boundary: filter cell by cell
	chunkInside         // every cell of the block is in the span
	chunkOutside        // no cell of the block is in the span
)

// classify places chunk key's block against the span.
func (sp Span) classify(key uint64) int {
	bx, by := geo.ZDecode(key)
	lx, ly := bx*chunkSide, by*chunkSide
	hx, hy := lx+chunkSide-1, ly+chunkSide-1
	switch {
	case hx < sp.X0 || lx > sp.X1 || hy < sp.Y0 || ly > sp.Y1:
		return chunkOutside
	case lx >= sp.X0 && hx <= sp.X1 && ly >= sp.Y0 && hy <= sp.Y1:
		return chunkInside
	}
	return chunkAcross
}

// chunkEnd returns the end of the run of s from i whose cells share s[i]'s
// chunk. It gallops, so a run of one cell — a sparse set — costs O(1).
func chunkEnd(s Set, i int) int {
	key := s[i] >> chunkBits
	if key == ^uint64(0)>>chunkBits {
		return len(s)
	}
	return i + gallop([]uint64(s[i:]), (key+1)<<chunkBits)
}

// ClipRect returns the cells of c inside the grid-coordinate span of r
// under g: Set.FilterRect on the container form, without decoding it.
// A chunk wholly inside the span is shared with c, one wholly outside is
// skipped, and only the chunks across the span's boundary are filtered.
// When every chunk is inside, the result is c itself.
func (c *Compact) ClipRect(g geo.Grid, r geo.Rect) *Compact {
	if c.Len() == 0 || r.IsEmpty() {
		return &Compact{}
	}
	sp := spanOf(g, r)
	var out *Compact // nil while every chunk so far is inside
	for i, key := range c.keys {
		class := sp.classify(key)
		if out == nil {
			if class == chunkInside {
				continue
			}
			out = &Compact{
				keys: append(make([]uint64, 0, len(c.keys)), c.keys[:i]...),
				cts:  append(make([]container, 0, len(c.keys)), c.cts[:i]...),
			}
			for j := range out.cts {
				out.n += out.cts[j].n
			}
		}
		switch class {
		case chunkInside:
			out.push(key, c.cts[i])
		case chunkAcross:
			out.push(key, c.cts[i].clip(key, sp))
		}
	}
	if out == nil || out.n == c.n {
		return c
	}
	return out
}

// Meets reports whether some cell of c lies in sp. Like ClipRect it skips
// the chunks wholly outside the span and filters only those across its
// boundary; a non-empty chunk wholly inside answers at once.
func (c *Compact) Meets(sp Span) bool {
	if c.Len() == 0 {
		return false
	}
	for i, key := range c.keys {
		switch sp.classify(key) {
		case chunkInside:
			return true
		case chunkAcross:
			if c.cts[i].clip(key, sp).n > 0 {
				return true
			}
		}
	}
	return false
}

// clip returns the canonical container of ct's cells, in chunk key, that
// lie in the span: ct itself when they all do.
func (ct *container) clip(key uint64, sp Span) container {
	base := key << chunkBits
	if ct.bm == nil {
		arr := make([]uint16, 0, len(ct.arr))
		for _, v := range ct.arr {
			if sp.contains(base | uint64(v)) {
				arr = append(arr, v)
			}
		}
		if len(arr) == ct.n {
			return *ct
		}
		return container{arr: arr, n: len(arr)}
	}
	var bm bitmap
	n := 0
	for w, word := range ct.bm {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if sp.contains(base | uint64(w<<6+b)) {
				bm[w] |= 1 << b
				n++
			}
		}
	}
	if n == ct.n {
		return *ct
	}
	return canonBitmap(&bm, n)
}

// Bounds returns the grid-coordinate MBR of c's cells, as Set.Bounds does
// for the flat form. It decodes the cells of the chunks on the extreme
// block rows and columns only: the extreme cells lie in those.
func (c *Compact) Bounds() (minX, minY, maxX, maxY uint32, ok bool) {
	if c.Len() == 0 {
		return 0, 0, 0, 0, false
	}
	bx0, by0 := ^uint32(0), ^uint32(0)
	var bx1, by1 uint32
	for _, key := range c.keys {
		bx, by := geo.ZDecode(key)
		bx0, by0 = min(bx0, bx), min(by0, by)
		bx1, by1 = max(bx1, bx), max(by1, by)
	}
	minX, minY = ^uint32(0), ^uint32(0)
	for i, key := range c.keys {
		bx, by := geo.ZDecode(key)
		if bx != bx0 && bx != bx1 && by != by0 && by != by1 {
			continue
		}
		lx0, ly0, lx1, ly1 := c.cts[i].bounds()
		if bx == bx0 {
			minX = min(minX, bx*chunkSide+lx0)
		}
		if bx == bx1 {
			maxX = max(maxX, bx*chunkSide+lx1)
		}
		if by == by0 {
			minY = min(minY, by*chunkSide+ly0)
		}
		if by == by1 {
			maxY = max(maxY, by*chunkSide+ly1)
		}
	}
	return minX, minY, maxX, maxY, true
}

// bounds returns the MBR of a non-empty container's cells within their
// chunk's block.
func (ct *container) bounds() (minX, minY, maxX, maxY uint32) {
	minX, minY = ^uint32(0), ^uint32(0)
	add := func(v uint64) {
		x, y := geo.ZDecode(v)
		minX, minY = min(minX, x), min(minY, y)
		maxX, maxY = max(maxX, x), max(maxY, y)
	}
	if ct.bm == nil {
		for _, v := range ct.arr {
			add(uint64(v))
		}
		return minX, minY, maxX, maxY
	}
	for w, word := range ct.bm {
		for ; word != 0; word &= word - 1 {
			add(uint64(w<<6 + bits.TrailingZeros64(word)))
		}
	}
	return minX, minY, maxX, maxY
}

package geo

// The z-order (Morton) curve interleaves the bits of a cell's (X, Y) grid
// coordinates to form a single integer cell ID (Definition 4 and Fig. 2 of
// the paper). With resolution θ the grid has 2^θ × 2^θ cells and IDs form
// the dense range [0, 2^θ · 2^θ − 1].

// MaxTheta is the largest supported grid resolution: 2^28 cells per axis
// keeps interleaved IDs within 56 bits.
const MaxTheta = 28

// part1By1 spreads the low 32 bits of v so that bit i moves to bit 2i.
func part1By1(v uint64) uint64 {
	v &= 0x00000000ffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// compact1By1 is the inverse of part1By1: it gathers every other bit of v
// (bits 0,2,4,…) into the low half.
func compact1By1(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return v
}

// ZEncode interleaves grid coordinates (x, y) into a z-order cell ID. The x
// coordinate occupies the even bits and y the odd bits, so the bottom-left
// cell (0,0) maps to 0 as in Fig. 2 of the paper.
func ZEncode(x, y uint32) uint64 {
	return part1By1(uint64(x)) | part1By1(uint64(y))<<1
}

// ZDecode recovers the grid coordinates from a z-order cell ID.
func ZDecode(c uint64) (x, y uint32) {
	return uint32(compact1By1(c)), uint32(compact1By1(c >> 1))
}

// CellDist2 returns the squared grid-coordinate distance between two cell
// IDs, for threshold comparisons without the square root.
func CellDist2(a, b uint64) float64 {
	ax, ay := ZDecode(a)
	bx, by := ZDecode(b)
	dx := float64(int64(ax) - int64(bx))
	dy := float64(int64(ay) - int64(by))
	return dx*dx + dy*dy
}

package cellset

import (
	"cmp"
	"math/bits"
	"slices"
)

// Compact is the container-based representation of a cell set, built for
// the overlap/coverage hot path. Cells are partitioned by the high 48 bits
// of their z-order ID into chunks; each chunk stores its low 16 bits as
// either a sorted []uint16 array or a 1024-word bitmap, whichever is
// denser. Set operations then proceed chunk-at-a-time, and dense×dense
// chunks reduce to word operations (AND + popcount), which is where the
// z-order clustering of real datasets pays off: spatially compact data
// lands in few, dense chunks.
//
// A Compact is immutable: every operation returns a new value (possibly
// sharing containers with its inputs), so values may be read concurrently.
// All methods accept a nil receiver or argument as the empty set. The flat
// Set remains the construction and interchange format; FromSet and
// (*Compact).Set convert between the two.
type Compact struct {
	keys []uint64    // sorted chunk keys: cell >> chunkBits
	cts  []container // cts[i] holds the cells of chunk keys[i]
	n    int         // total cardinality
}

const (
	chunkBits   = 16
	chunkMask   = 1<<chunkBits - 1
	bitmapWords = 1 << (chunkBits - 6) // 1024 words = 8 KiB per dense chunk

	// arrayMaxLen is the array↔bitmap crossover: 4096 uint16s occupy
	// exactly the bitmap's 8 KiB, so the chosen form is never larger than
	// the alternative. Containers keep the canonical form — array iff the
	// cardinality is at most arrayMaxLen — which makes Equal structural.
	arrayMaxLen = 4096
)

// bitmap is one dense chunk: bit v set means cell low bits v is present.
type bitmap [bitmapWords]uint64

// container holds one chunk's cells. Exactly one of arr and bm is in use:
// arr when n <= arrayMaxLen, bm beyond.
type container struct {
	arr []uint16 // sorted unique low bits; nil iff bm != nil
	bm  *bitmap
	n   int
}

// FromSet converts a flat Set (sorted, unique — the Set invariant) into
// its container representation.
func FromSet(s Set) *Compact {
	c := &Compact{}
	if len(s) == 0 {
		return c
	}
	c.keys = make([]uint64, 0, 1+len(s)/arrayMaxLen)
	c.cts = make([]container, 0, cap(c.keys))
	for i := 0; i < len(s); {
		key := s[i] >> chunkBits
		j := i + 1
		for j < len(s) && s[j]>>chunkBits == key {
			j++
		}
		c.keys = append(c.keys, key)
		c.cts = append(c.cts, makeContainer(s[i:j]))
		c.n += j - i
		i = j
	}
	return c
}

// makeContainer builds the canonical container for one chunk's cells.
func makeContainer(cells Set) container {
	if len(cells) <= arrayMaxLen {
		arr := make([]uint16, len(cells))
		for i, cell := range cells {
			arr[i] = uint16(cell & chunkMask)
		}
		return container{arr: arr, n: len(arr)}
	}
	var bm bitmap
	for _, cell := range cells {
		v := cell & chunkMask
		bm[v>>6] |= 1 << (v & 63)
	}
	return container{bm: &bm, n: len(cells)}
}

// Len returns the number of cells.
func (c *Compact) Len() int {
	if c == nil {
		return 0
	}
	return c.n
}

// IsEmpty reports whether the set has no cells.
func (c *Compact) IsEmpty() bool { return c.Len() == 0 }

// NumChunks returns the number of chunks the cells occupy.
func (c *Compact) NumChunks() int {
	if c == nil {
		return 0
	}
	return len(c.keys)
}

// Set materializes the flat sorted Set.
func (c *Compact) Set() Set {
	if c.Len() == 0 {
		return nil
	}
	return c.AppendCells(make(Set, 0, c.n))
}

// AppendCells appends the cells in ascending order to dst and returns it.
// It grows dst once, then writes each container's cells in place.
func (c *Compact) AppendCells(dst Set) Set {
	if c == nil {
		return dst
	}
	n := len(dst)
	if cap(dst)-n < c.n {
		dst = append(make(Set, 0, n+c.n), dst...)
	}
	dst = dst[:n+c.n]
	for i, key := range c.keys {
		base := key << chunkBits
		ct := &c.cts[i]
		out := dst[n : n+ct.n]
		n += ct.n
		if ct.bm != nil {
			j := 0
			for w, word := range ct.bm {
				for ; word != 0; word &= word - 1 {
					out[j] = base | uint64(w<<6+bits.TrailingZeros64(word))
					j++
				}
			}
			continue
		}
		for j, v := range ct.arr {
			out[j] = base | uint64(v)
		}
	}
	return dst
}

// ForEach calls fn for every cell in ascending order until fn returns
// false.
func (c *Compact) ForEach(fn func(cell uint64) bool) {
	if c == nil {
		return
	}
	for i, key := range c.keys {
		base := key << chunkBits
		ct := &c.cts[i]
		if ct.bm != nil {
			for w, word := range ct.bm {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					if !fn(base | uint64(w<<6+b)) {
						return
					}
					word &= word - 1
				}
			}
			continue
		}
		for _, v := range ct.arr {
			if !fn(base | uint64(v)) {
				return
			}
		}
	}
}

// Equal reports whether c and o contain exactly the same cells. Canonical
// container forms make this a structural comparison.
func (c *Compact) Equal(o *Compact) bool {
	if c.Len() != o.Len() {
		return false
	}
	if c.Len() == 0 {
		return true
	}
	if !slices.Equal(c.keys, o.keys) {
		return false
	}
	for i := range c.cts {
		a, b := &c.cts[i], &o.cts[i]
		if a.n != b.n || (a.bm != nil) != (b.bm != nil) {
			return false
		}
		if a.bm != nil {
			if *a.bm != *b.bm {
				return false
			}
		} else if !slices.Equal(a.arr, b.arr) {
			return false
		}
	}
	return true
}

// IntersectCount returns |c ∩ o| without materializing the intersection —
// the overlap measure of OJSP (Definition 10). Allocation-free.
func (c *Compact) IntersectCount(o *Compact) int {
	if c.Len() == 0 || o.Len() == 0 {
		return 0
	}
	n, i, j := 0, 0, 0
	for i < len(c.keys) && j < len(o.keys) {
		switch {
		case c.keys[i] == o.keys[j]:
			n += intersectCount(&c.cts[i], &o.cts[j])
			i++
			j++
		case c.keys[i] < o.keys[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// AppendIntersectRanks appends to dst, in ascending order, the rank in c —
// the index in c.Set() — of every cell c shares with o, and returns the
// extended slice: IntersectCount's chunk-wise merge, carrying the number of
// c's cells that precede the chunk at hand. The appended length equals
// c.IntersectCount(o). A DITS-L leaf keys its posting lists by rank in the
// leaf's cell union, so one call yields both the Lemma 2 bound and the
// lists to count. Allocation-free once dst has the capacity; c must hold
// fewer than 2^32 cells.
func (c *Compact) AppendIntersectRanks(o *Compact, dst []uint32) []uint32 {
	if c.Len() == 0 || o.Len() == 0 {
		return dst
	}
	base := uint32(0) // cells of c in the chunks before keys[i]
	i, j := 0, 0
	for i < len(c.keys) && j < len(o.keys) {
		switch {
		case c.keys[i] == o.keys[j]:
			dst = appendRanks(dst, base, &c.cts[i], &o.cts[j])
			base += uint32(c.cts[i].n)
			i++
			j++
		case c.keys[i] < o.keys[j]:
			base += uint32(c.cts[i].n)
			i++
		default:
			j++
		}
	}
	return dst
}

// MarginalGain returns g(o, c) = |o ∪ c| − |c|: the number of cells o adds
// on top of c (Equation 3 with c playing the accumulated result set).
// Allocation-free.
func (c *Compact) MarginalGain(o *Compact) int {
	return o.Len() - c.IntersectCount(o)
}

// Union returns c ∪ o. The result may share containers with the inputs.
func (c *Compact) Union(o *Compact) *Compact {
	if c.Len() == 0 {
		if o.Len() == 0 {
			return &Compact{}
		}
		return o
	}
	if o.Len() == 0 {
		return c
	}
	out := &Compact{
		keys: make([]uint64, 0, len(c.keys)+len(o.keys)),
		cts:  make([]container, 0, len(c.keys)+len(o.keys)),
	}
	i, j := 0, 0
	for i < len(c.keys) && j < len(o.keys) {
		switch {
		case c.keys[i] == o.keys[j]:
			out.push(c.keys[i], unionContainers(&c.cts[i], &o.cts[j]))
			i++
			j++
		case c.keys[i] < o.keys[j]:
			out.push(c.keys[i], c.cts[i])
			i++
		default:
			out.push(o.keys[j], o.cts[j])
			j++
		}
	}
	for ; i < len(c.keys); i++ {
		out.push(c.keys[i], c.cts[i])
	}
	for ; j < len(o.keys); j++ {
		out.push(o.keys[j], o.cts[j])
	}
	return out
}

// Intersect returns c ∩ o.
func (c *Compact) Intersect(o *Compact) *Compact {
	out := &Compact{}
	if c.Len() == 0 || o.Len() == 0 {
		return out
	}
	i, j := 0, 0
	for i < len(c.keys) && j < len(o.keys) {
		switch {
		case c.keys[i] == o.keys[j]:
			out.push(c.keys[i], intersectContainers(&c.cts[i], &o.cts[j]))
			i++
			j++
		case c.keys[i] < o.keys[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Diff returns c \ o. The result may share containers with c.
func (c *Compact) Diff(o *Compact) *Compact {
	if c.Len() == 0 {
		return &Compact{}
	}
	if o.Len() == 0 {
		return c
	}
	out := &Compact{
		keys: make([]uint64, 0, len(c.keys)),
		cts:  make([]container, 0, len(c.keys)),
	}
	i, j := 0, 0
	for i < len(c.keys) && j < len(o.keys) {
		switch {
		case c.keys[i] == o.keys[j]:
			out.push(c.keys[i], diffContainers(&c.cts[i], &o.cts[j]))
			i++
			j++
		case c.keys[i] < o.keys[j]:
			out.push(c.keys[i], c.cts[i])
			i++
		default:
			j++
		}
	}
	for ; i < len(c.keys); i++ {
		out.push(c.keys[i], c.cts[i])
	}
	return out
}

// MemoryBytes estimates the resident size of the representation: chunk
// keys plus each container's payload.
func (c *Compact) MemoryBytes() int64 {
	if c == nil {
		return 0
	}
	bytes := int64(len(c.keys)) * (8 + containerHeaderBytes)
	for i := range c.cts {
		bytes += c.cts[i].payloadBytes()
	}
	return bytes
}

// containerHeaderBytes is MemoryBytes' charge for a container's header.
const containerHeaderBytes = 32

// payloadBytes is the size of the container's array or bitmap.
func (ct *container) payloadBytes() int64 {
	if ct.bm != nil {
		return bitmapWords * 8
	}
	return int64(len(ct.arr)) * 2
}

// push appends a non-empty container under key, maintaining n.
func (c *Compact) push(key uint64, ct container) {
	if ct.n == 0 {
		return
	}
	c.keys = append(c.keys, key)
	c.cts = append(c.cts, ct)
	c.n += ct.n
}

// intersectCount counts the intersection of two containers.
func intersectCount(a, b *container) int {
	switch {
	case a.bm != nil && b.bm != nil:
		n := 0
		for w := range a.bm {
			n += bits.OnesCount64(a.bm[w] & b.bm[w])
		}
		return n
	case a.bm != nil:
		return arrBitmapCount(b.arr, a.bm)
	case b.bm != nil:
		return arrBitmapCount(a.arr, b.bm)
	default:
		return arrIntersectCount(a.arr, b.arr)
	}
}

// arrBitmapCount counts the array entries whose bit is set in bm.
func arrBitmapCount(arr []uint16, bm *bitmap) int {
	n := 0
	for _, v := range arr {
		n += int(bm[v>>6] >> (v & 63) & 1)
	}
	return n
}

// arrIntersectCount counts the intersection of two sorted arrays, with
// galloping when the sizes are very skewed (mirroring Set.IntersectCount).
func arrIntersectCount(a, b []uint16) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b)/len(a) >= 32 {
		n, lo := 0, 0
		for _, v := range a {
			idx, found := slices.BinarySearch(b[lo:], v)
			lo += idx
			if found {
				n++
				lo++
			}
			if lo >= len(b) {
				break
			}
		}
		return n
	}
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// appendRanks appends base plus the rank within a of every value a shares
// with b, ascending.
func appendRanks(dst []uint32, base uint32, a, b *container) []uint32 {
	switch {
	case a.bm != nil && b.bm != nil:
		dst = bitmapAppendRanks(dst, base, a.bm, b.bm)
	case a.bm != nil:
		w := 0 // base counts a's values in the words before w
		for _, v := range b.arr {
			for ; w < int(v>>6); w++ {
				base += uint32(bits.OnesCount64(a.bm[w]))
			}
			if bit := uint64(1) << (v & 63); a.bm[w]&bit != 0 {
				dst = append(dst, base+uint32(bits.OnesCount64(a.bm[w]&(bit-1))))
			}
		}
	case b.bm != nil:
		dst = arrBitmapAppendRanks(dst, base, a.arr, b.bm)
	default:
		dst = arrAppendRanks(dst, base, a.arr, b.arr)
	}
	return dst
}

// gallopRatio is the size skew from which arrAppendRanks probes the longer
// array by exponential search instead of merging through it.
const gallopRatio = 8

// arrAppendRanks is appendRanks for two sorted arrays.
func arrAppendRanks(dst []uint32, base uint32, a, b []uint16) []uint32 {
	switch {
	case len(b)*gallopRatio <= len(a):
		lo := 0
		for _, v := range b {
			lo += gallop(a[lo:], v)
			if lo == len(a) {
				break
			}
			if a[lo] == v {
				dst = append(dst, base+uint32(lo))
				lo++
			}
		}
	case len(a)*gallopRatio <= len(b):
		lo := 0
		for i, v := range a {
			lo += gallop(b[lo:], v)
			if lo == len(b) {
				break
			}
			if b[lo] == v {
				dst = append(dst, base+uint32(i))
				lo++
			}
		}
	default:
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] == b[j]:
				dst = append(dst, base+uint32(i))
				i++
				j++
			case a[i] < b[j]:
				i++
			default:
				j++
			}
		}
	}
	return dst
}

// gallop returns the index of the first element of sorted s that is >= v
// (len(s) when none is), doubling its stride from the front so that a
// target near the front costs O(log distance), not O(log len(s)).
func gallop[T cmp.Ordered](s []T, v T) int {
	lo, hi := 0, 1 // s[:lo] < v
	for hi <= len(s) && s[hi-1] < v {
		lo, hi = hi, hi<<1
	}
	hi = min(hi, len(s))
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// unionContainers returns the canonical union of two containers.
func unionContainers(a, b *container) container {
	switch {
	case a.bm != nil && b.bm != nil:
		var bm bitmap
		n := 0
		for w := range bm {
			v := a.bm[w] | b.bm[w]
			bm[w] = v
			n += bits.OnesCount64(v)
		}
		return container{bm: &bm, n: n}
	case a.bm != nil:
		return bitmapArrUnion(a, b.arr)
	case b.bm != nil:
		return bitmapArrUnion(b, a.arr)
	default:
		merged := make([]uint16, 0, len(a.arr)+len(b.arr))
		i, j := 0, 0
		for i < len(a.arr) && j < len(b.arr) {
			switch {
			case a.arr[i] == b.arr[j]:
				merged = append(merged, a.arr[i])
				i++
				j++
			case a.arr[i] < b.arr[j]:
				merged = append(merged, a.arr[i])
				i++
			default:
				merged = append(merged, b.arr[j])
				j++
			}
		}
		merged = append(merged, a.arr[i:]...)
		merged = append(merged, b.arr[j:]...)
		if len(merged) > arrayMaxLen {
			return arrayToBitmap(merged)
		}
		return container{arr: merged, n: len(merged)}
	}
}

// bitmapArrUnion unions an array into a copy of a bitmap container. The
// result keeps at least a's cardinality (> arrayMaxLen), so it stays a
// bitmap.
func bitmapArrUnion(a *container, arr []uint16) container {
	out := *a.bm
	n := a.n
	for _, v := range arr {
		w, bit := v>>6, uint64(1)<<(v&63)
		if out[w]&bit == 0 {
			out[w] |= bit
			n++
		}
	}
	return container{bm: &out, n: n}
}

// intersectContainers returns the canonical intersection of two containers.
func intersectContainers(a, b *container) container {
	switch {
	case a.bm != nil && b.bm != nil:
		var bm bitmap
		n := 0
		for w := range bm {
			v := a.bm[w] & b.bm[w]
			bm[w] = v
			n += bits.OnesCount64(v)
		}
		return canonBitmap(&bm, n)
	case a.bm != nil:
		return filterArr(b.arr, a.bm, 1)
	case b.bm != nil:
		return filterArr(a.arr, b.bm, 1)
	default:
		small, big := a.arr, b.arr
		if len(small) > len(big) {
			small, big = big, small
		}
		out := make([]uint16, 0, len(small))
		i, j := 0, 0
		for i < len(small) && j < len(big) {
			switch {
			case small[i] == big[j]:
				out = append(out, small[i])
				i++
				j++
			case small[i] < big[j]:
				i++
			default:
				j++
			}
		}
		return container{arr: out, n: len(out)}
	}
}

// diffContainers returns the canonical difference a \ b.
func diffContainers(a, b *container) container {
	switch {
	case a.bm != nil && b.bm != nil:
		var bm bitmap
		n := 0
		for w := range bm {
			v := a.bm[w] &^ b.bm[w]
			bm[w] = v
			n += bits.OnesCount64(v)
		}
		return canonBitmap(&bm, n)
	case a.bm != nil:
		// Clear b's array entries out of a copy of a's bitmap.
		out := *a.bm
		n := a.n
		for _, v := range b.arr {
			w, bit := v>>6, uint64(1)<<(v&63)
			if out[w]&bit != 0 {
				out[w] &^= bit
				n--
			}
		}
		return canonBitmap(&out, n)
	case b.bm != nil:
		return filterArr(a.arr, b.bm, 0)
	default:
		out := make([]uint16, 0, len(a.arr))
		i, j := 0, 0
		for i < len(a.arr) && j < len(b.arr) {
			switch {
			case a.arr[i] == b.arr[j]:
				i++
				j++
			case a.arr[i] < b.arr[j]:
				out = append(out, a.arr[i])
				i++
			default:
				j++
			}
		}
		out = append(out, a.arr[i:]...)
		return container{arr: out, n: len(out)}
	}
}

// filterArr keeps the array entries whose bitmap bit equals want (1 keeps
// members of bm — intersection; 0 keeps non-members — difference).
func filterArr(arr []uint16, bm *bitmap, want uint64) container {
	out := make([]uint16, 0, len(arr))
	for _, v := range arr {
		if bm[v>>6]>>(v&63)&1 == want {
			out = append(out, v)
		}
	}
	return container{arr: out, n: len(out)}
}

// arrayToBitmap converts a sorted array that outgrew the threshold into a
// bitmap container.
func arrayToBitmap(arr []uint16) container {
	var bm bitmap
	for _, v := range arr {
		bm[v>>6] |= 1 << (v & 63)
	}
	return container{bm: &bm, n: len(arr)}
}

// canonBitmap converts a freshly computed bitmap with n set bits into
// canonical form: an array when sparse enough, the bitmap otherwise.
func canonBitmap(bm *bitmap, n int) container {
	if n > arrayMaxLen {
		return container{bm: bm, n: n}
	}
	arr := make([]uint16, 0, n)
	for w, word := range bm {
		for word != 0 {
			arr = append(arr, uint16(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return container{arr: arr, n: n}
}

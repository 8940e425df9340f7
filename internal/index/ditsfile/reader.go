package ditsfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"sync/atomic"
	"unsafe"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
)

// Options configures how a snapshot is opened.
type Options struct {
	// MMap maps the file and serves leaf payloads zero-copy out of the
	// mapping. When false (or on platforms without mmap) each leaf is
	// materialized once via pread into heap copies instead — same
	// results, bounded only by how many leaves the workload touches.
	MMap bool

	// VerifyData additionally checks the CELLS and POST section CRCs at
	// open. The header and the NODES/DIR/NAMES sections are always
	// verified. Ingest recovery sets this (a corrupt snapshot must fall
	// back to WAL replay, not serve wrong counts); latency benchmarks do
	// not, so a cold open faults nothing the queries will not.
	VerifyData bool
}

// Reader is an open snapshot: it owns the file (and mapping) behind the
// *dits.Local it assembled. The index stays valid until Close; in mmap
// mode Close unmaps memory live search results may still alias, so an
// owner that swaps readers (the ingest store) must keep retired readers
// open until the whole store shuts down.
type Reader struct {
	f    *os.File
	data []byte // whole-file mapping; nil in copy mode
	hdr  *header

	local    *dits.Local
	skeleton int64 // heap estimate of the eagerly decoded skeleton

	leafLoads atomic.Int64
	resident  atomic.Int64
	loadErrs  atomic.Int64
}

// dsMeta is the payload address of one dataset, kept reader-side.
type dsMeta struct {
	cellsOff uint64
	numCells uint32
}

// leafMeta is the payload address of one leaf.
type leafMeta struct {
	unionOff, postOff uint64
	first, count      uint32
}

// Open opens a snapshot and assembles its file-backed index. The header
// and skeleton sections are decoded and CRC-verified eagerly; leaf
// payloads stay on disk until a search touches them. Any corruption
// detectable at this point is a clean error — the caller (ingest
// recovery) falls back to replaying the WAL from the previous snapshot.
func Open(path string, opts Options) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := open(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func open(f *os.File, opts Options) (*Reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	hbuf := make([]byte, headerLen)
	if _, err := f.ReadAt(hbuf, 0); err != nil {
		return nil, fmt.Errorf("ditsfile: read header: %w", err)
	}
	hdr, err := decodeHeader(hbuf, st.Size())
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, hdr: hdr}
	if opts.MMap && mmapSupported {
		data, err := mmapFile(f, st.Size())
		if err != nil {
			return nil, fmt.Errorf("ditsfile: mmap: %w", err)
		}
		r.data = data
	}
	for _, si := range []int{secNodes, secDir, secNames} {
		if err := r.verifySection(si); err != nil {
			r.cleanup()
			return nil, err
		}
	}
	if opts.VerifyData {
		for _, si := range []int{secCells, secPost} {
			if err := r.verifySection(si); err != nil {
				r.cleanup()
				return nil, err
			}
		}
	}
	if err := r.assemble(); err != nil {
		r.cleanup()
		return nil, err
	}
	return r, nil
}

func (r *Reader) cleanup() {
	munmap(r.data)
	r.data = nil
}

// Index returns the file-backed index. It is valid until Close.
func (r *Reader) Index() *dits.Local { return r.local }

// MappedBytes implements dits.BackingInfo.
func (r *Reader) MappedBytes() int64 { return int64(len(r.data)) }

// ResidentEstBytes implements dits.BackingInfo: the decoded skeleton plus
// the payload bytes of every leaf materialized so far. In copy mode this
// tracks actual heap; in mmap mode it estimates the mapped pages the
// index has faulted in (an upper bound the OS is free to shrink).
func (r *Reader) ResidentEstBytes() int64 { return r.skeleton + r.resident.Load() }

// LeafLoads implements dits.BackingInfo.
func (r *Reader) LeafLoads() int64 { return r.leafLoads.Load() }

// LoadErrors implements dits.BackingInfo.
func (r *Reader) LoadErrors() int64 { return r.loadErrs.Load() }

// DropResident asks the kernel to drop the mapping's resident pages (a
// no-op in copy mode). Already-materialized leaves stay valid — their
// views refault from the file on next access.
func (r *Reader) DropResident() { madviseDontNeed(r.data) }

// Close unmaps and closes the file. In mmap mode the index and anything
// aliasing it must no longer be in use.
func (r *Reader) Close() error {
	err := munmap(r.data)
	r.data = nil
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadHeap fully materializes a snapshot into an ordinary heap-resident
// index and closes the file: the load path for stores running without
// -mmap. It is strict — data CRCs are verified and any
// leaf that fails validation fails the load.
func LoadHeap(path string) (*dits.Local, error) {
	r, err := Open(path, Options{VerifyData: true})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var lerr error
	r.local.Root.VisitLeaves(func(n *dits.TreeNode) {
		n.EnsureLoaded()
		if err := n.LoadErr(); err != nil && lerr == nil {
			lerr = err
		}
	})
	if lerr != nil {
		return nil, lerr
	}
	r.local.Backing = nil
	return r.local, nil
}

// verifySection checks one section's CRC-32C, streaming in copy mode so
// verification never buffers a whole data section.
func (r *Reader) verifySection(si int) error {
	sec := r.hdr.secs[si]
	var got uint32
	if r.data != nil {
		got = crc32.Checksum(r.data[sec.off:sec.off+sec.len], castagnoli)
	} else {
		buf := make([]byte, 1<<20)
		off, rem := int64(sec.off), int64(sec.len)
		for rem > 0 {
			n := int64(len(buf))
			if rem < n {
				n = rem
			}
			if _, err := r.f.ReadAt(buf[:n], off); err != nil {
				return fmt.Errorf("ditsfile: read section %d: %w", si, err)
			}
			got = crc32.Update(got, castagnoli, buf[:n])
			off += n
			rem -= n
		}
	}
	if got != sec.crc {
		return fmt.Errorf("ditsfile: section %d CRC mismatch (got %08x, want %08x)", si, got, sec.crc)
	}
	return nil
}

// sectionBytes returns a whole section: a mapping subslice, or one pread.
func (r *Reader) sectionBytes(si int) ([]byte, error) {
	sec := r.hdr.secs[si]
	if r.data != nil {
		return r.data[sec.off : sec.off+sec.len], nil
	}
	buf := make([]byte, sec.len)
	if _, err := r.f.ReadAt(buf, int64(sec.off)); err != nil {
		return nil, fmt.Errorf("ditsfile: read section %d: %w", si, err)
	}
	return buf, nil
}

// assemble decodes the skeleton (NODES, DIR, NAMES), validates the tree
// shape, and arms every non-empty leaf with its lazy loader.
func (r *Reader) assemble() error {
	h := r.hdr
	nodesB, err := r.sectionBytes(secNodes)
	if err != nil {
		return err
	}
	dirB, err := r.sectionBytes(secDir)
	if err != nil {
		return err
	}
	namesB, err := r.sectionBytes(secNames)
	if err != nil {
		return err
	}

	// Dataset stubs. Duplicate IDs are caught by NewFromTree below.
	stubs := make([]*dataset.Node, h.numDatasets)
	arena := make([]dataset.Node, h.numDatasets)
	ds := make([]dsMeta, h.numDatasets)
	for j := 0; j < h.numDatasets; j++ {
		b := dirB[j*dirRecLen:]
		nameOff := binary.LittleEndian.Uint32(b[8:])
		nameLen := binary.LittleEndian.Uint32(b[12:])
		if uint64(nameOff)+uint64(nameLen) > uint64(len(namesB)) {
			return fmt.Errorf("ditsfile: dataset %d name out of bounds", j)
		}
		cellsOff := binary.LittleEndian.Uint64(b[72:])
		numCells := binary.LittleEndian.Uint32(b[80:])
		if binary.LittleEndian.Uint32(b[84:]) != 0 {
			return fmt.Errorf("ditsfile: dataset %d reserved field not zero", j)
		}
		if numCells == 0 || cellsOff%8 != 0 || cellsOff >= h.secs[secCells].len {
			return fmt.Errorf("ditsfile: dataset %d payload address corrupt", j)
		}
		nd := &arena[j]
		nd.ID = int(int64(binary.LittleEndian.Uint64(b)))
		nd.Name = string(namesB[nameOff : nameOff+nameLen])
		nd.Rect, nd.O, nd.R = getRect(b[16:])
		stubs[j] = nd
		ds[j] = dsMeta{cellsOff: cellsOff, numCells: numCells}
	}

	// Tree skeleton.
	tree := make([]dits.TreeNode, h.numNodes)
	metas := make([]leafMeta, h.numNodes)
	refs := make([]uint8, h.numNodes)
	claimed := 0
	for i := 0; i < h.numNodes; i++ {
		b := nodesB[i*nodeRecLen:]
		n := &tree[i]
		n.Rect, n.O, n.R = getRect(b)
		left := binary.LittleEndian.Uint32(b[56:])
		right := binary.LittleEndian.Uint32(b[60:])
		first := binary.LittleEndian.Uint32(b[64:])
		count := binary.LittleEndian.Uint32(b[68:])
		n.MaxCells = int(binary.LittleEndian.Uint32(b[72:]))
		if binary.LittleEndian.Uint32(b[76:]) != 0 {
			return fmt.Errorf("ditsfile: node %d reserved field not zero", i)
		}
		m := leafMeta{
			unionOff: binary.LittleEndian.Uint64(b[80:]),
			postOff:  binary.LittleEndian.Uint64(b[88:]),
			first:    first,
			count:    count,
		}
		if (left == noneU32) != (right == noneU32) {
			return fmt.Errorf("ditsfile: node %d has one child link", i)
		}
		if left != noneU32 { // internal
			if int(left) <= i || int(left) >= h.numNodes || int(right) <= i || int(right) >= h.numNodes || left == right {
				return fmt.Errorf("ditsfile: node %d child links corrupt", i)
			}
			if count != 0 || first != 0 || m.unionOff != noneU64 || m.postOff != noneU64 {
				return fmt.Errorf("ditsfile: internal node %d carries leaf payload", i)
			}
			n.Left, n.Right = &tree[left], &tree[right]
			tree[left].Parent, tree[right].Parent = n, n
			refs[left]++
			refs[right]++
			continue
		}
		// Leaf.
		if int(count) > h.leafCap || uint64(first)+uint64(count) > uint64(h.numDatasets) {
			return fmt.Errorf("ditsfile: leaf %d child range corrupt", i)
		}
		if count == 0 {
			if m.unionOff != noneU64 || m.postOff != noneU64 {
				return fmt.Errorf("ditsfile: empty leaf %d carries payload addresses", i)
			}
			continue
		}
		if m.unionOff == noneU64 || m.unionOff%8 != 0 || m.unionOff >= h.secs[secCells].len ||
			m.postOff == noneU64 || m.postOff%8 != 0 || m.postOff >= h.secs[secPost].len {
			return fmt.Errorf("ditsfile: leaf %d payload addresses corrupt", i)
		}
		maxCov := 0
		for j := first; j < first+count; j++ {
			if cov := int(ds[j].numCells); cov > maxCov {
				maxCov = cov
			}
		}
		// MaxCells is a search-pruning bound: a too-small value silently
		// drops results, so it must match the directory exactly.
		if n.MaxCells != maxCov {
			return fmt.Errorf("ditsfile: leaf %d MaxCells %d != max child coverage %d", i, n.MaxCells, maxCov)
		}
		n.Children = stubs[first : first+count : first+count]
		claimed += int(count)
		metas[i] = m
	}
	for i := 1; i < h.numNodes; i++ {
		if refs[i] != 1 {
			return fmt.Errorf("ditsfile: node %d referenced %d times", i, refs[i])
		}
	}
	if refs[0] != 0 {
		return fmt.Errorf("ditsfile: root is referenced as a child")
	}
	if claimed != h.numDatasets {
		return fmt.Errorf("ditsfile: leaves claim %d datasets, directory has %d", claimed, h.numDatasets)
	}

	for i := range tree {
		n := &tree[i]
		if !n.IsLeaf() || len(n.Children) == 0 {
			continue
		}
		m := metas[i]
		kids := ds[m.first : m.first+m.count]
		dits.AttachLazyLeaf(n, func() (dits.LeafData, error) { return r.loadLeaf(m, kids) })
	}

	local, err := dits.NewFromTree(h.grid, h.leafCap, &tree[0])
	if err != nil {
		return err
	}
	local.Backing = r
	r.local = local
	r.skeleton = int64(h.numNodes)*int64(unsafe.Sizeof(dits.TreeNode{})) +
		int64(h.numDatasets)*(int64(unsafe.Sizeof(dataset.Node{}))+64) +
		int64(len(namesB))
	return nil
}

// loadLeaf materializes one leaf: child cell containers, the union
// summary, and the posting block. A validation failure counts as a load
// error and leaves the leaf empty; it never panics.
func (r *Reader) loadLeaf(m leafMeta, kids []dsMeta) (dits.LeafData, error) {
	r.leafLoads.Add(1)
	ld, bytes, err := r.materializeLeaf(m, kids)
	if err != nil {
		r.loadErrs.Add(1)
		return dits.LeafData{}, err
	}
	r.resident.Add(bytes)
	return ld, nil
}

func (r *Reader) materializeLeaf(m leafMeta, kids []dsMeta) (dits.LeafData, int64, error) {
	var ld dits.LeafData
	var bytes int64
	entries := 0
	ld.ChildCells = make([]*cellset.Compact, len(kids))
	for j, k := range kids {
		c, n, err := r.cellRecord(k.cellsOff)
		if err != nil {
			return ld, 0, err
		}
		if c.Len() != int(k.numCells) {
			return ld, 0, fmt.Errorf("ditsfile: cell record holds %d cells, directory says %d", c.Len(), k.numCells)
		}
		ld.ChildCells[j] = c
		entries += c.Len()
		bytes += int64(n)
	}
	union, n, err := r.cellRecord(m.unionOff)
	if err != nil {
		return ld, 0, err
	}
	bytes += int64(n)
	post, n, err := r.postBlock(m.postOff, union.Len(), entries, len(kids))
	if err != nil {
		return ld, 0, err
	}
	bytes += int64(n)
	ld.Union, ld.Post = union, post
	return ld, bytes, nil
}

// cellRecord decodes one cellset storage record at the given CELLS
// offset. In mmap mode the containers alias the mapping; in copy mode
// they alias a fresh heap buffer read for this record.
func (r *Reader) cellRecord(off uint64) (*cellset.Compact, int, error) {
	b, err := r.recordBytes(secCells, off)
	if err != nil {
		return nil, 0, err
	}
	return cellset.ViewStorage(b)
}

// recordBytes returns the bytes of a length-prefixed record at off: the
// rest of the mapped section (the decoder reads its own length), or, in
// copy mode, exactly the record via a length pread then a payload pread.
func (r *Reader) recordBytes(si int, off uint64) ([]byte, error) {
	sec := r.hdr.secs[si]
	if off+4 > sec.len {
		return nil, fmt.Errorf("ditsfile: record offset %d beyond section %d", off, si)
	}
	if r.data != nil {
		return r.data[sec.off+off : sec.off+sec.len], nil
	}
	var l4 [4]byte
	if _, err := r.f.ReadAt(l4[:], int64(sec.off+off)); err != nil {
		return nil, fmt.Errorf("ditsfile: read record: %w", err)
	}
	byteLen := uint64(binary.LittleEndian.Uint32(l4[:]))
	if byteLen < 4 || byteLen > sec.len-off {
		return nil, fmt.Errorf("ditsfile: record at %d overruns section %d", off, si)
	}
	buf := make([]byte, byteLen)
	if _, err := r.f.ReadAt(buf, int64(sec.off+off)); err != nil {
		return nil, fmt.Errorf("ditsfile: read record: %w", err)
	}
	return buf, nil
}

// postBlock decodes one leaf posting block, validating it against the
// union summary (cell count), the children's total cells (entry count),
// and the child count (position range). The block's cell list is checked
// but not kept: the leaf reads its lists by rank in the union summary. It
// returns the byte count the leaf keeps.
func (r *Reader) postBlock(off uint64, wantCells, wantEntries, nchildren int) (*dits.LeafPostings, int, error) {
	sec := r.hdr.secs[secPost]
	if off+8 > sec.len {
		return nil, 0, fmt.Errorf("ditsfile: posting block offset %d out of bounds", off)
	}
	var b []byte
	if r.data != nil {
		b = r.data[sec.off+off : sec.off+sec.len]
	} else {
		var h8 [8]byte
		if _, err := r.f.ReadAt(h8[:], int64(sec.off+off)); err != nil {
			return nil, 0, fmt.Errorf("ditsfile: read posting block: %w", err)
		}
		nc := int(binary.LittleEndian.Uint32(h8[:]))
		ne := int(binary.LittleEndian.Uint32(h8[4:]))
		if nc != wantCells || ne != wantEntries {
			return nil, 0, fmt.Errorf("ditsfile: posting block header (%d cells, %d entries) disagrees with leaf (%d, %d)", nc, ne, wantCells, wantEntries)
		}
		blk := postBlockLen(nc, ne)
		if blk > sec.len-off {
			return nil, 0, fmt.Errorf("ditsfile: posting block at %d overruns section", off)
		}
		b = make([]byte, blk)
		if _, err := r.f.ReadAt(b, int64(sec.off+off)); err != nil {
			return nil, 0, fmt.Errorf("ditsfile: read posting block: %w", err)
		}
	}
	nc := int(binary.LittleEndian.Uint32(b))
	ne := int(binary.LittleEndian.Uint32(b[4:]))
	if nc != wantCells || ne != wantEntries {
		return nil, 0, fmt.Errorf("ditsfile: posting block header (%d cells, %d entries) disagrees with leaf (%d, %d)", nc, ne, wantCells, wantEntries)
	}
	need := int(postBlockLen(nc, ne))
	if need > len(b) {
		return nil, 0, fmt.Errorf("ditsfile: posting block truncated")
	}
	for i := 1; i < nc; i++ {
		if binary.LittleEndian.Uint64(b[8+8*i:]) <= binary.LittleEndian.Uint64(b[8*i:]) {
			return nil, 0, fmt.Errorf("ditsfile: posting cells not strictly ascending")
		}
	}
	kept := b[8+8*nc : 8+12*nc+2*ne]
	if r.data == nil {
		// Copy mode: keep the ends and entries, not the cell list's bytes.
		kept = slices.Clone(kept)
	}
	p := &dits.LeafPostings{Ends: sliceU32(kept, nc), Entries: sliceU16(kept[4*nc:], ne)}
	prevEnd := uint32(0)
	for _, e := range p.Ends {
		if e <= prevEnd || e > uint32(ne) {
			return nil, 0, fmt.Errorf("ditsfile: posting ends corrupt")
		}
		prevEnd = e
	}
	if nc > 0 && p.Ends[nc-1] != uint32(ne) {
		return nil, 0, fmt.Errorf("ditsfile: posting ends do not cover all entries")
	}
	for _, pos := range p.Entries {
		if int(pos) >= nchildren {
			return nil, 0, fmt.Errorf("ditsfile: posting position %d out of range", pos)
		}
	}
	return p, len(kept), nil
}

// hostLittleEndian gates the zero-copy word views below.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// sliceU32 views n little-endian u32 words at the front of b, aliasing b
// when the host representation matches and b is aligned, copying
// otherwise. Callers have bounds-checked b. sliceU16 is the same for u16.
func sliceU32(b []byte, n int) []uint32 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func sliceU16(b []byte, n int) []uint16 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%2 == 0 {
		return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return out
}

// getRect decodes MBR + pivot + radius from b[0:56].
func getRect(b []byte) (geo.Rect, geo.Point, float64) {
	r := geo.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(b)),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
	o := geo.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(b[32:])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(b[40:])),
	}
	return r, o, math.Float64frombits(binary.LittleEndian.Uint64(b[48:]))
}

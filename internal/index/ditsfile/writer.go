package ditsfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
)

// Write serializes idx into the snapshot format. It streams: sections are
// planned with exact sizes first, then encoded record by record through a
// CRC-tracking writer, so peak memory is one record, not one section. The
// header (which carries the section CRCs) is written last by seeking back
// to the start.
//
// Write only reads the index — materializing file-backed leaves through
// their sync.Once is its only logically-visible effect — so the ingest
// store runs it under the same shared lock searches use.
func Write(ws io.WriteSeeker, idx *dits.Local) error {
	if idx == nil || idx.Root == nil {
		return fmt.Errorf("ditsfile: write nil index")
	}
	p, err := plan(idx)
	if err != nil {
		return err
	}
	if _, err := ws.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("ditsfile: write: %w", err)
	}
	h := &header{
		grid:        idx.Grid,
		leafCap:     idx.F,
		numNodes:    len(p.order),
		numDatasets: len(p.dir),
	}
	bw := bufio.NewWriterSize(ws, 1<<16)
	// Header placeholder; the real one lands after the sections are
	// streamed and their CRCs known.
	if _, err := bw.Write(make([]byte, headerLen)); err != nil {
		return fmt.Errorf("ditsfile: write: %w", err)
	}
	sw := &sectionWriter{w: bw, n: headerLen}
	if err := p.writeSections(sw, h); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("ditsfile: write: %w", err)
	}
	h.fileSize = uint64(sw.n)
	if _, err := ws.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("ditsfile: write: %w", err)
	}
	if _, err := ws.Write(h.encode()); err != nil {
		return fmt.Errorf("ditsfile: write header: %w", err)
	}
	return nil
}

// WriteFile writes idx to a new file at path, fsyncing before close.
// Callers needing atomic replacement (the ingest store) write to a temp
// path and rename.
func WriteFile(path string, idx *dits.Local) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, idx); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sectionWriter tracks the byte count and per-section CRC of the stream.
type sectionWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (s *sectionWriter) begin() { s.crc = 0 }

func (s *sectionWriter) write(b []byte) error {
	s.crc = crc32.Update(s.crc, castagnoli, b)
	n, err := s.w.Write(b)
	s.n += int64(n)
	return err
}

var zeros [8]byte

// padTo8 pads the stream to the next 8-byte boundary inside a section.
func (s *sectionWriter) padTo8() error {
	if rem := s.n % 8; rem != 0 {
		return s.write(zeros[:8-rem])
	}
	return nil
}

// filePlan is the exact layout computed before any byte is emitted:
// preorder node list with child indexes, leaf-major dataset directory,
// and the running CELLS/POST/NAMES offsets every record refers to.
type filePlan struct {
	order       []*dits.TreeNode
	left, right []uint32
	firstChild  []uint32
	numChildren []uint32
	unionOff    []uint64
	postOff     []uint64

	dir      []*dataset.Node
	nameOff  []uint32
	cellsOff []uint64

	namesLen int64
	cellsLen uint64
	postLen  uint64
}

func plan(idx *dits.Local) (*filePlan, error) {
	p := &filePlan{}
	var err error
	var visit func(n *dits.TreeNode) uint32
	visit = func(n *dits.TreeNode) uint32 {
		i := uint32(len(p.order))
		p.order = append(p.order, n)
		p.left = append(p.left, noneU32)
		p.right = append(p.right, noneU32)
		p.firstChild = append(p.firstChild, 0)
		p.numChildren = append(p.numChildren, 0)
		p.unionOff = append(p.unionOff, noneU64)
		p.postOff = append(p.postOff, noneU64)
		if !n.IsLeaf() {
			l := visit(n.Left)
			r := visit(n.Right)
			p.left[i], p.right[i] = l, r
			return i
		}
		p.firstChild[i] = uint32(len(p.dir))
		p.numChildren[i] = uint32(len(n.Children))
		union := n.LeafSummaries() // materializes a file-backed leaf
		if err != nil {
			return i
		}
		entries := 0
		for _, c := range n.Children {
			cc := c.CompactCells()
			if cc.Len() == 0 {
				err = fmt.Errorf("ditsfile: dataset %d has no cells", c.ID)
				return i
			}
			p.dir = append(p.dir, c)
			p.nameOff = append(p.nameOff, uint32(p.namesLen))
			p.cellsOff = append(p.cellsOff, p.cellsLen)
			p.namesLen += int64(len(c.Name))
			p.cellsLen += uint64(cellset.StorageSize(cc))
			entries += cc.Len()
		}
		if len(n.Children) > 0 {
			p.unionOff[i] = p.cellsLen
			p.cellsLen += uint64(cellset.StorageSize(union))
			p.postOff[i] = p.postLen
			p.postLen += postBlockLen(union.Len(), entries)
		}
		return i
	}
	visit(idx.Root)
	if err != nil {
		return nil, err
	}
	if len(p.order) > int(noneU32)-1 || p.namesLen > int64(noneU32) {
		return nil, fmt.Errorf("ditsfile: index too large for format")
	}
	return p, nil
}

// postBlockLen is the padded byte length of one leaf posting block.
func postBlockLen(nCells, nEntries int) uint64 {
	return uint64((8 + 12*nCells + 2*nEntries + 7) &^ 7)
}

// writeSections streams the five sections in order, recording their
// descriptors (offset, length, CRC) into h.
func (p *filePlan) writeSections(sw *sectionWriter, h *header) error {
	var rec [nodeRecLen]byte

	// NODES
	start := sw.n
	sw.begin()
	for i, n := range p.order {
		b := rec[:nodeRecLen]
		putRect(b, n.Rect, n.O, n.R)
		binary.LittleEndian.PutUint32(b[56:], p.left[i])
		binary.LittleEndian.PutUint32(b[60:], p.right[i])
		binary.LittleEndian.PutUint32(b[64:], p.firstChild[i])
		binary.LittleEndian.PutUint32(b[68:], p.numChildren[i])
		binary.LittleEndian.PutUint32(b[72:], uint32(n.MaxCells))
		binary.LittleEndian.PutUint32(b[76:], 0)
		binary.LittleEndian.PutUint64(b[80:], p.unionOff[i])
		binary.LittleEndian.PutUint64(b[88:], p.postOff[i])
		if err := sw.write(b); err != nil {
			return fmt.Errorf("ditsfile: write nodes: %w", err)
		}
	}
	h.secs[secNodes] = section{off: uint64(start), len: uint64(sw.n - start), crc: sw.crc}

	// DIR
	start = sw.n
	sw.begin()
	for i, c := range p.dir {
		b := rec[:dirRecLen]
		binary.LittleEndian.PutUint64(b, uint64(int64(c.ID)))
		binary.LittleEndian.PutUint32(b[8:], p.nameOff[i])
		binary.LittleEndian.PutUint32(b[12:], uint32(len(c.Name)))
		putRect(b[16:], c.Rect, c.O, c.R)
		binary.LittleEndian.PutUint64(b[72:], p.cellsOff[i])
		binary.LittleEndian.PutUint32(b[80:], uint32(c.Coverage()))
		binary.LittleEndian.PutUint32(b[84:], 0)
		if err := sw.write(b); err != nil {
			return fmt.Errorf("ditsfile: write dir: %w", err)
		}
	}
	h.secs[secDir] = section{off: uint64(start), len: uint64(sw.n - start), crc: sw.crc}

	// NAMES
	start = sw.n
	sw.begin()
	for _, c := range p.dir {
		if err := sw.write([]byte(c.Name)); err != nil {
			return fmt.Errorf("ditsfile: write names: %w", err)
		}
	}
	h.secs[secNames] = section{off: uint64(start), len: uint64(sw.n - start), crc: sw.crc}
	if err := sw.padTo8(); err != nil {
		return fmt.Errorf("ditsfile: write: %w", err)
	}

	// CELLS: per-child records in DIR order, then each leaf's union
	// summary — exactly the offsets the plan assigned.
	start = sw.n
	sw.begin()
	var buf []byte
	writeCells := func(c *cellset.Compact) error {
		buf = cellset.AppendStorage(buf[:0], c)
		return sw.write(buf)
	}
	for i, n := range p.order {
		if !n.IsLeaf() || len(n.Children) == 0 {
			continue
		}
		for _, c := range n.Children {
			if uint64(sw.n-start) != p.cellsOff[p.childDirIdx(i, c)] {
				return fmt.Errorf("ditsfile: cells offset drift at dataset %d", c.ID)
			}
			if err := writeCells(c.CompactCells()); err != nil {
				return fmt.Errorf("ditsfile: write cells: %w", err)
			}
		}
		if uint64(sw.n-start) != p.unionOff[i] {
			return fmt.Errorf("ditsfile: union offset drift at node %d", i)
		}
		if err := writeCells(n.LeafSummaries()); err != nil {
			return fmt.Errorf("ditsfile: write cells: %w", err)
		}
	}
	h.secs[secCells] = section{off: uint64(start), len: uint64(sw.n - start), crc: sw.crc}

	// POST
	start = sw.n
	sw.begin()
	for i, n := range p.order {
		if !n.IsLeaf() || len(n.Children) == 0 {
			continue
		}
		if uint64(sw.n-start) != p.postOff[i] {
			return fmt.Errorf("ditsfile: post offset drift at node %d", i)
		}
		if err := writePostings(sw, n.LeafSummaries(), n.Postings()); err != nil {
			return err
		}
	}
	h.secs[secPost] = section{off: uint64(start), len: uint64(sw.n - start), crc: sw.crc}
	return nil
}

// childDirIdx returns the DIR index of child c of the leaf at node index
// i. Children are contiguous from firstChild in slice order, so this is a
// bounded scan used only for the offset-drift assertions.
func (p *filePlan) childDirIdx(i int, c *dataset.Node) int {
	first := int(p.firstChild[i])
	for j := 0; j < int(p.numChildren[i]); j++ {
		if p.dir[first+j] == c {
			return first + j
		}
	}
	return first
}

// writePostings emits one leaf's posting block: the leaf's union cells in
// order, streamed from the union summary, then the inverted index grouped
// by cell, positions ascending within each cell.
func writePostings(sw *sectionWriter, union *cellset.Compact, p *dits.LeafPostings) error {
	var w8 [8]byte
	binary.LittleEndian.PutUint32(w8[:], uint32(union.Len()))
	binary.LittleEndian.PutUint32(w8[4:], uint32(len(p.Entries)))
	if err := sw.write(w8[:]); err != nil {
		return fmt.Errorf("ditsfile: write post: %w", err)
	}
	var err error
	union.ForEach(func(cell uint64) bool {
		binary.LittleEndian.PutUint64(w8[:], cell)
		err = sw.write(w8[:])
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("ditsfile: write post: %w", err)
	}
	for _, end := range p.Ends {
		binary.LittleEndian.PutUint32(w8[:4], end)
		if err := sw.write(w8[:4]); err != nil {
			return fmt.Errorf("ditsfile: write post: %w", err)
		}
	}
	for _, pos := range p.Entries {
		binary.LittleEndian.PutUint16(w8[:2], pos)
		if err := sw.write(w8[:2]); err != nil {
			return fmt.Errorf("ditsfile: write post: %w", err)
		}
	}
	return sw.padTo8()
}

// putRect encodes MBR + pivot + radius at b[0:56].
func putRect(b []byte, r geo.Rect, o geo.Point, rad float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.MinY))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.MaxX))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.MaxY))
	binary.LittleEndian.PutUint64(b[32:], math.Float64bits(o.X))
	binary.LittleEndian.PutUint64(b[40:], math.Float64bits(o.Y))
	binary.LittleEndian.PutUint64(b[48:], math.Float64bits(rad))
}

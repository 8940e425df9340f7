// Package ditsfile is the binary on-disk snapshot format of a DITS-L
// index, designed to be searched IN PLACE: the reader mmaps the file
// (io.ReaderAt fallback off unix), decodes only the fixed-width tree
// skeleton eagerly, and materializes each leaf's payload — child cell
// containers, the Lemma 2 union summary, posting lists — on first
// touch, straight out of the mapping with zero copies on little-endian
// hosts. A leaf the tree walk prunes never faults its pages in, which is
// what lets one source serve an index several times larger than its RAM
// budget (TestMMapServesUnderBudget holds it to one).
//
// # Layout
//
// All integers are little-endian; every section and every record inside
// one starts 8-byte aligned, so mapped payload words are naturally
// aligned for in-place use.
//
//	header (192 B)
//	  [0:8)    magic "DSNAP002" — the format version; DSNAP001 files, which
//	           also carried each leaf's all-children summary, are refused
//	  [8:12)   u32 CRC-32C of header[12:192)
//	  [12:16)  u32 flags (must be 1: little-endian payload)
//	  [16:20)  u32 theta      — grid resolution
//	  [20:24)  u32 leafCap    — the index's f
//	  [24:56)  f64 originX, originY, cellW, cellH
//	  [56:60)  u32 numNodes   — tree nodes, preorder, root first
//	  [60:64)  u32 numDatasets
//	  [64:72)  u64 fileSize   — total bytes, rejects truncated files
//	  [72:192) 5 × section descriptor {u64 off, u64 len, u32 crc32c, u32 0}
//	           in order: NODES, DIR, NAMES, CELLS, POST
//
//	NODES — numNodes × 96 B records (tree skeleton, preorder):
//	  [0:32)   f64 minX, minY, maxX, maxY  — MBR in grid coordinates
//	  [32:48)  f64 oX, oY                  — pivot
//	  [48:56)  f64 r                       — radius
//	  [56:64)  u32 left, right             — node indexes; ~0 = leaf
//	  [64:72)  u32 firstChild, numChildren — DIR range of a leaf's datasets
//	  [72:76)  u32 maxCells                — free bound |S_D|max
//	  [76:80)  u32 reserved (0)
//	  [80:88)  u64 unionOff  — CELLS offset of the leaf union summary, ~0 if none
//	  [88:96)  u64 postOff   — POST offset of the leaf's posting block
//
//	DIR — numDatasets × 88 B records (dataset stubs, leaf-major order so
//	every leaf's children are one contiguous range):
//	  [0:8)    i64 id
//	  [8:16)   u32 nameOff, nameLen        — into NAMES
//	  [16:48)  f64 minX, minY, maxX, maxY
//	  [48:72)  f64 oX, oY, r
//	  [72:80)  u64 cellsOff                — CELLS offset of the cell record
//	  [80:88)  u32 numCells, u32 reserved (0)
//
//	NAMES — raw name bytes, addressed by DIR.
//
//	CELLS — cellset storage records (cellset.AppendStorage): the children's
//	cell containers and the per-leaf union summaries, 8-aligned.
//
//	POST — per-leaf posting blocks, 8-aligned:
//	  u32 nCells, u32 nEntries
//	  u64 × nCells   distinct cells, strictly ascending (== union summary)
//	  u32 × nCells   prefix end offsets into the entries
//	  u16 × nEntries child positions, grouped per cell, ascending
//	  pad to 8
//
//	The cell list is written from the leaf's union summary and checked on
//	load, but a loaded leaf does not keep it: the i-th list is addressed by
//	its cell's rank i in the union summary, which the leaf holds anyway.
//
// # Integrity
//
// The header CRC and the NODES/DIR/NAMES section CRCs are verified at
// every Open (they are small and decoded eagerly anyway). The CELLS/POST
// CRCs cover the bulk payload and are verified only when
// Options.VerifyData is set — the ingest recovery path does; latency
// benchmarks do not, so a cold open faults nothing it does not search.
// Independent of CRCs, every record is structurally validated when
// touched; a leaf whose payload fails validation degrades to an empty
// leaf and bumps the reader's error counter. No input bytes can panic
// the reader (FuzzSnapshotDecode).
package ditsfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"dits/internal/geo"
)

const (
	magic     = "DSNAP002"
	headerLen = 192

	flagLittleEndian = 1

	secNodes = 0
	secDir   = 1
	secNames = 2
	secCells = 3
	secPost  = 4
	numSecs  = 5

	nodeRecLen = 96
	dirRecLen  = 88

	noneU32 = ^uint32(0)
	noneU64 = ^uint64(0)
)

// castagnoli is the CRC-32C polynomial table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// section is one section descriptor of the header table.
type section struct {
	off, len uint64
	crc      uint32
}

// header is the decoded file header.
type header struct {
	grid        geo.Grid
	leafCap     int
	numNodes    int
	numDatasets int
	fileSize    uint64
	secs        [numSecs]section
}

// encode serializes the header, computing its CRC.
func (h *header) encode() []byte {
	buf := make([]byte, headerLen)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[12:], flagLittleEndian)
	binary.LittleEndian.PutUint32(buf[16:], uint32(h.grid.Theta))
	binary.LittleEndian.PutUint32(buf[20:], uint32(h.leafCap))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(h.grid.Origin.X))
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(h.grid.Origin.Y))
	binary.LittleEndian.PutUint64(buf[40:], math.Float64bits(h.grid.CellW))
	binary.LittleEndian.PutUint64(buf[48:], math.Float64bits(h.grid.CellH))
	binary.LittleEndian.PutUint32(buf[56:], uint32(h.numNodes))
	binary.LittleEndian.PutUint32(buf[60:], uint32(h.numDatasets))
	binary.LittleEndian.PutUint64(buf[64:], h.fileSize)
	for i, s := range h.secs {
		p := buf[72+24*i:]
		binary.LittleEndian.PutUint64(p, s.off)
		binary.LittleEndian.PutUint64(p[8:], s.len)
		binary.LittleEndian.PutUint32(p[16:], s.crc)
	}
	binary.LittleEndian.PutUint32(buf[8:], crc32.Checksum(buf[12:], castagnoli))
	return buf
}

// decodeHeader parses and validates the header against the actual file
// size. Every failure mode is a clean error: recovery falls back to a
// full WAL replay when a snapshot does not open.
func decodeHeader(buf []byte, fileSize int64) (*header, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("ditsfile: file shorter than header (%d bytes)", len(buf))
	}
	if string(buf[:8]) != magic {
		if string(buf[:5]) == magic[:5] {
			return nil, fmt.Errorf("ditsfile: snapshot format %s, this build reads %s: regenerate the file with datagen", buf[:8], magic)
		}
		return nil, fmt.Errorf("ditsfile: bad magic %q", buf[:8])
	}
	if got, want := crc32.Checksum(buf[12:headerLen], castagnoli), binary.LittleEndian.Uint32(buf[8:]); got != want {
		return nil, fmt.Errorf("ditsfile: header CRC mismatch (got %08x, want %08x)", got, want)
	}
	if flags := binary.LittleEndian.Uint32(buf[12:]); flags != flagLittleEndian {
		return nil, fmt.Errorf("ditsfile: unsupported flags %#x", flags)
	}
	h := &header{
		leafCap:     int(binary.LittleEndian.Uint32(buf[20:])),
		numNodes:    int(binary.LittleEndian.Uint32(buf[56:])),
		numDatasets: int(binary.LittleEndian.Uint32(buf[60:])),
		fileSize:    binary.LittleEndian.Uint64(buf[64:]),
	}
	h.grid.Theta = int(binary.LittleEndian.Uint32(buf[16:]))
	h.grid.Origin.X = math.Float64frombits(binary.LittleEndian.Uint64(buf[24:]))
	h.grid.Origin.Y = math.Float64frombits(binary.LittleEndian.Uint64(buf[32:]))
	h.grid.CellW = math.Float64frombits(binary.LittleEndian.Uint64(buf[40:]))
	h.grid.CellH = math.Float64frombits(binary.LittleEndian.Uint64(buf[48:]))
	if h.grid.Theta < 1 || h.grid.Theta > geo.MaxTheta {
		return nil, fmt.Errorf("ditsfile: corrupt resolution θ=%d", h.grid.Theta)
	}
	if h.leafCap < 1 || h.leafCap > 1<<20 {
		return nil, fmt.Errorf("ditsfile: corrupt leaf capacity %d", h.leafCap)
	}
	if h.fileSize != uint64(fileSize) {
		return nil, fmt.Errorf("ditsfile: header says %d bytes, file has %d (truncated?)", h.fileSize, fileSize)
	}
	if h.numNodes < 1 || h.numDatasets < 0 {
		return nil, fmt.Errorf("ditsfile: corrupt node counts (%d nodes, %d datasets)", h.numNodes, h.numDatasets)
	}
	prevEnd := uint64(headerLen)
	for i := range h.secs {
		p := buf[72+24*i:]
		s := section{
			off: binary.LittleEndian.Uint64(p),
			len: binary.LittleEndian.Uint64(p[8:]),
			crc: binary.LittleEndian.Uint32(p[16:]),
		}
		if binary.LittleEndian.Uint32(p[20:]) != 0 {
			return nil, fmt.Errorf("ditsfile: section %d reserved field not zero", i)
		}
		if s.off%8 != 0 || s.off < prevEnd || s.len > h.fileSize || s.off > h.fileSize-s.len {
			return nil, fmt.Errorf("ditsfile: section %d [%d,+%d) out of bounds", i, s.off, s.len)
		}
		prevEnd = s.off + s.len
		h.secs[i] = s
	}
	if uint64(h.numNodes)*nodeRecLen != h.secs[secNodes].len {
		return nil, fmt.Errorf("ditsfile: NODES section length %d != %d records", h.secs[secNodes].len, h.numNodes)
	}
	if uint64(h.numDatasets)*dirRecLen != h.secs[secDir].len {
		return nil, fmt.Errorf("ditsfile: DIR section length %d != %d records", h.secs[secDir].len, h.numDatasets)
	}
	return h, nil
}

// Package ingest is the durable write path of one data source: an
// append-only write-ahead log that records every dataset mutation before it
// is applied to the live DITS-L index, plus background snapshot compaction
// and crash recovery. The durability contract is WAL-then-apply: a mutation
// is acknowledged only after its record is framed, checksummed, and (under
// the default fsync policy) flushed to stable storage, so a crash at any
// point yields, on restart, exactly the index produced by some prefix of
// the acknowledged mutations — and that prefix contains every acknowledged
// mutation when fsync is on.
//
// On-disk layout (one directory per source, see docs/OPERATIONS.md):
//
//	wal.log            append-only mutation log
//	snap-<seq>.dsnap   index snapshot covering mutations 1..seq (ditsfile)
//	MANIFEST           points at the newest committed snapshot
//
// Recovery loads the manifest's snapshot, replays the WAL records with
// sequence numbers beyond it, and tolerates a torn final record (the tail
// is truncated to the last intact frame). The WAL is a FramedLog
// (framedlog.go) whose payloads are the records encoded below; the record
// check (recordScanner) is what turns a CRC-clean frame that is not the
// next record into the end of the intact prefix.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dits/internal/cellset"
)

// FsyncMode selects the WAL flush policy.
type FsyncMode int

const (
	// FsyncAlways flushes the WAL to stable storage after every append:
	// an acknowledged mutation survives power loss. The default.
	FsyncAlways FsyncMode = iota
	// FsyncNever leaves flushing to the OS page cache: far higher append
	// throughput, but a crash may lose the most recent acknowledged
	// mutations (never corrupt the survivors — framing and checksums make
	// the torn tail detectable and recovery truncates it).
	FsyncNever
)

// ParseFsyncMode parses the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("ingest: unknown fsync mode %q (want always or never)", s)
}

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	if m == FsyncNever {
		return "never"
	}
	return "always"
}

// Mutation opcodes recorded in the WAL.
const (
	opPut    byte = 1 // upsert a dataset (insert, or replace by ID)
	opDelete byte = 2 // remove a dataset by ID
)

// walMagic is the 8-byte file header; the trailing byte versions the
// record format.
var walMagic = []byte("DITSWAL\x01")

// walRecord is one logged mutation. Cells is nil for deletes.
type walRecord struct {
	Seq   uint64 // mutation sequence number, strictly increasing
	Op    byte   // opPut or opDelete
	ID    int
	Name  string
	Cells cellset.Set
}

// encode appends the record's payload (no frame header) to buf.
// The layout is fixed little-endian:
//
//	u64 seq | u8 op | i64 id | u16 len(name) | name | u32 len(cells) | cells
func (r walRecord) encode(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = append(buf, r.Op)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(r.ID)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Name)))
	buf = append(buf, r.Name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Cells)))
	for _, c := range r.Cells {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	return buf
}

// decodeRecord parses one payload. Any structural mismatch returns an
// error, which replay treats as a torn tail.
func decodeRecord(p []byte) (walRecord, error) {
	var r walRecord
	if len(p) < 8+1+8+2 {
		return r, errors.New("ingest: short record")
	}
	r.Seq = binary.LittleEndian.Uint64(p)
	r.Op = p[8]
	r.ID = int(int64(binary.LittleEndian.Uint64(p[9:])))
	nameLen := int(binary.LittleEndian.Uint16(p[17:]))
	p = p[19:]
	if len(p) < nameLen+4 {
		return r, errors.New("ingest: truncated name")
	}
	r.Name = string(p[:nameLen])
	p = p[nameLen:]
	n := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) != 8*n {
		return r, errors.New("ingest: truncated cell set")
	}
	if r.Op != opPut && r.Op != opDelete {
		return r, fmt.Errorf("ingest: unknown opcode %d", r.Op)
	}
	if n > 0 {
		r.Cells = make(cellset.Set, n)
		for i := range r.Cells {
			r.Cells[i] = binary.LittleEndian.Uint64(p[8*i:])
		}
	}
	return r, nil
}

// maxNameBytes caps a dataset name so the u16 length prefix always fits;
// an over-long name is rejected BEFORE logging — silently truncating it
// in the log would make the recovered index diverge from the live one.
const maxNameBytes = 0xFFFF

// recordScanner returns the WAL's record check, shared by recovery and
// shipping: it decodes each payload in log order and reports false —
// the end of the intact prefix — for one that does not decode or whose
// sequence number does not strictly increase.
func recordScanner() func(payload []byte) (walRecord, bool) {
	lastSeq := uint64(0)
	return func(p []byte) (walRecord, bool) {
		rec, err := decodeRecord(p)
		if err != nil || rec.Seq <= lastSeq {
			return rec, false
		}
		lastSeq = rec.Seq
		return rec, true
	}
}

// openWAL opens (or creates) the log at path and returns its intact
// records in log order, truncating a torn tail in place.
func openWAL(path string, fsync bool) (*FramedLog, []walRecord, error) {
	var recs []walRecord
	next := recordScanner()
	log, _, err := OpenFramedLog(path, walMagic, fsync, func(p []byte) bool {
		rec, ok := next(p)
		if ok {
			recs = append(recs, rec)
		}
		return ok
	})
	return log, recs, err
}

// appendRecord logs one record, refusing up front what replay could not
// read back.
func appendRecord(log *FramedLog, rec walRecord) error {
	if len(rec.Name) > maxNameBytes {
		return fmt.Errorf("ingest: dataset %d name is %d bytes (max %d)", rec.ID, len(rec.Name), maxNameBytes)
	}
	payload := rec.encode(make([]byte, 0, 23+len(rec.Name)+8*len(rec.Cells)))
	if len(payload) > maxRecordBytes {
		// Replay treats an over-long frame as a torn tail, so logging it
		// would silently drop this and every later mutation on recovery.
		return fmt.Errorf("ingest: mutation for dataset %d is %d bytes, over the %d-byte record cap", rec.ID, len(payload), maxRecordBytes)
	}
	return log.Append(payload)
}

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
// is truncated to the last intact frame).
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

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

// maxRecordBytes caps one record's payload; anything larger in a length
// header is garbage from a torn write, not a record.
const maxRecordBytes = 64 << 20

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

// wal is the append-only log file. It is not safe for concurrent use; the
// Store serializes appends under its write lock.
type wal struct {
	f     *os.File
	path  string
	fsync bool
	size  int64 // last known-good frame boundary
	// broken is set when a failed append could not be rolled back to the
	// last good boundary: further appends would land after garbage and be
	// unrecoverable, so they are refused until the store is reopened.
	broken bool
}

// frame header: u32 payload length | u32 CRC-32 (Castagnoli) of the payload.
const frameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// openWAL opens (or creates) the log at path and replays every intact
// record, truncating a torn tail in place so appends resume on a clean
// frame boundary. Records are returned in log order.
func openWAL(path string, fsync bool) (*wal, []walRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: open wal: %w", err)
	}
	w := &wal{f: f, path: path, fsync: fsync}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: read wal: %w", err)
	}
	if len(data) < len(walMagic) && string(data) == string(walMagic[:len(data)]) {
		// Empty file, or a header torn by a crash during the very first
		// init (a strict prefix of the magic, so no record can have been
		// acknowledged yet): reinitialize in place.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: init wal: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: init wal: %w", err)
		}
		if _, err := f.Write(walMagic); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: init wal: %w", err)
		}
		if err := w.maybeSync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.size = int64(len(walMagic))
		return w, nil, nil
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: %s is not a WAL (bad magic)", path)
	}

	// Replay: scan intact frames (walkFrames rejects short headers, absurd
	// lengths, and bad checksums); a payload that does not decode or whose
	// sequence number does not advance marks the torn tail, which is
	// truncated away. A torn write never corrupts preceding records
	// because appends are strictly sequential.
	var recs []walRecord
	lastSeq := uint64(0)
	off := len(walMagic) + walkFrames(data[len(walMagic):], func(_ int, payload []byte) bool {
		rec, err := decodeRecord(payload)
		if err != nil || rec.Seq <= lastSeq {
			return false
		}
		recs = append(recs, rec)
		lastSeq = rec.Seq
		return true
	})
	if int64(off) != int64(len(data)) {
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: truncate torn wal tail: %w", err)
		}
		if err := w.maybeSync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: seek wal: %w", err)
	}
	w.size = int64(off)
	return w, recs, nil
}

// append frames, checksums, writes, and (per policy) flushes one record.
// On any failure the log is rolled back to the last good frame boundary,
// so a partial frame can never sit in the middle of the file ahead of
// later acknowledged appends — and a record whose flush failed is removed
// rather than left to be replayed as if it had been acknowledged.
func (w *wal) append(rec walRecord) error {
	if w.broken {
		return fmt.Errorf("ingest: wal is in a failed state after an unrecoverable partial write; reopen the store")
	}
	if len(rec.Name) > maxNameBytes {
		return fmt.Errorf("ingest: dataset %d name is %d bytes (max %d)", rec.ID, len(rec.Name), maxNameBytes)
	}
	payload := rec.encode(make([]byte, 0, 23+len(rec.Name)+8*len(rec.Cells)))
	if len(payload) > maxRecordBytes {
		// Replay treats an over-long frame as a torn tail, so logging it
		// would silently drop this and every later mutation on recovery.
		return fmt.Errorf("ingest: mutation for dataset %d is %d bytes, over the %d-byte record cap", rec.ID, len(payload), maxRecordBytes)
	}
	frame := appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	if _, err := w.f.Write(frame); err != nil {
		return w.rollback(fmt.Errorf("ingest: wal append: %w", err))
	}
	if err := w.maybeSync(); err != nil {
		return w.rollback(err)
	}
	w.size += int64(len(frame))
	return nil
}

// rollback truncates the log back to the last good frame boundary after a
// failed append and returns cause (annotated if the rollback itself
// failed, in which case the log is marked broken).
func (w *wal) rollback(cause error) error {
	if err := w.f.Truncate(w.size); err != nil {
		w.broken = true
		return fmt.Errorf("%w (and rollback failed: %v; wal disabled until reopen)", cause, err)
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.broken = true
		return fmt.Errorf("%w (and rollback seek failed: %v; wal disabled until reopen)", cause, err)
	}
	return cause
}

// reset truncates the log back to its header — called after a snapshot
// commit makes every logged record redundant. A failed truncate leaves
// the log untouched (the stale records are skipped by sequence number on
// replay); a seek failure AFTER the truncate leaves the fd offset past a
// zero gap, so — exactly like rollback — the log is marked broken and
// refuses appends until reopened, rather than acknowledging records that
// replay would treat as a torn tail.
func (w *wal) reset() error {
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("ingest: reset wal: %w", err)
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		w.broken = true
		return fmt.Errorf("ingest: reset wal seek failed: %w; wal disabled until reopen", err)
	}
	w.size = int64(len(walMagic))
	return w.maybeSync()
}

// maybeSync flushes per the fsync policy.
func (w *wal) maybeSync() error {
	if !w.fsync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ingest: fsync wal: %w", err)
	}
	return nil
}

// close closes the log file, flushing first under the always policy.
func (w *wal) close() error {
	if err := w.maybeSync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

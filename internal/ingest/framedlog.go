package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// FramedLog is the one append-only log on disk: length+CRC framed
// payloads behind a versioned magic header, with a torn tail detected and
// truncated on open. The ingest WAL (wal.go) is a FramedLog whose
// payloads are mutation records, and the federation membership log is a
// FramedLog of membership events. WAL shipping (ship.go) walks the same
// frames on both sides, so a replica tolerates a torn shipped tail
// exactly like local recovery.

// frameHeader is a frame's header size: u32 payload length | u32 CRC-32
// (Castagnoli) of the payload. The payload follows.
const frameHeader = 8

// maxRecordBytes caps one payload; anything larger in a length header is
// garbage from a torn write, not a frame.
const maxRecordBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walkFrames scans data — a concatenation of frames with NO magic header
// — and calls fn once per structurally intact frame with the frame's
// byte offset and its payload. The scan stops at the first torn or
// corrupt frame (short header, absurd length, truncated payload, bad
// CRC), or when fn returns false — in which case that frame is not
// counted. It returns the byte offset one past the last accepted frame:
// everything from there on is tail to truncate (or garbage to ignore).
func walkFrames(data []byte, fn func(off int, payload []byte) bool) int {
	off := 0
	for {
		if len(data)-off < frameHeader {
			return off
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen <= 0 || plen > maxRecordBytes || len(data)-off-frameHeader < plen {
			return off
		}
		payload := data[off+frameHeader : off+frameHeader+plen]
		if crc32.Checksum(payload, crcTable) != crc {
			return off
		}
		if !fn(off, payload) {
			return off
		}
		off += frameHeader + plen
	}
}

// scanFrames parses a headerless frame sequence and returns every intact
// payload in order, plus the byte length of the intact prefix. accept,
// when non-nil, is asked about each CRC-clean payload in turn; the first
// it refuses ends the prefix like a torn frame does.
func scanFrames(data []byte, accept func(payload []byte) bool) (payloads [][]byte, intact int) {
	intact = walkFrames(data, func(_ int, p []byte) bool {
		if accept != nil && !accept(p) {
			return false
		}
		payloads = append(payloads, p)
		return true
	})
	return payloads, intact
}

// appendFrame frames one payload: u32 length | u32 CRC-32C | payload.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// FramedLog is an append-only log of opaque payloads. It is not safe for
// concurrent use; callers serialize appends.
type FramedLog struct {
	f     *os.File
	magic []byte
	fsync bool
	size  int64 // last known-good frame boundary
	// broken is set when a failed append (or reset) could not restore the
	// file offset to a frame boundary: further appends would land after
	// garbage and be unrecoverable, so they are refused until reopened.
	broken bool
}

// OpenFramedLog opens (or creates) the log at path, validates the magic
// header, and returns every intact payload in append order, truncating a
// torn tail in place so appends resume on a clean frame boundary. The
// magic must be non-empty; its last byte conventionally versions the
// payload format. accept, when non-nil, is the caller's record check: the
// first CRC-clean payload it refuses ends the intact prefix and is
// truncated away with everything after it.
func OpenFramedLog(path string, magic []byte, fsync bool, accept func(payload []byte) bool) (*FramedLog, [][]byte, error) {
	if len(magic) == 0 {
		return nil, nil, fmt.Errorf("ingest: framed log needs a magic header")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: open framed log: %w", err)
	}
	l := &FramedLog{f: f, magic: append([]byte(nil), magic...), fsync: fsync}
	payloads, err := l.recover(path, accept)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, payloads, nil
}

// recover reads the whole file and leaves it holding the magic and the
// intact prefix of frames, with the offset at its end.
func (l *FramedLog) recover(path string, accept func([]byte) bool) ([][]byte, error) {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return nil, fmt.Errorf("ingest: read framed log: %w", err)
	}
	if len(data) < len(l.magic) && string(data) == string(l.magic[:len(data)]) {
		// Empty file, or a header torn by a crash during the very first
		// init (a strict prefix of the magic, so no record can have been
		// acknowledged yet): reinitialize in place.
		if err := l.truncate(0); err != nil {
			return nil, fmt.Errorf("ingest: init framed log: %w", err)
		}
		if _, err := l.f.Write(l.magic); err != nil {
			return nil, fmt.Errorf("ingest: init framed log: %w", err)
		}
		l.size = int64(len(l.magic))
		return nil, l.maybeSync()
	}
	if len(data) < len(l.magic) || string(data[:len(l.magic)]) != string(l.magic) {
		return nil, fmt.Errorf("ingest: %s is not a framed log (bad magic)", path)
	}
	payloads, intact := scanFrames(data[len(l.magic):], accept)
	off := int64(len(l.magic) + intact)
	if off != int64(len(data)) {
		// A torn write never corrupts preceding frames because appends
		// are strictly sequential: cut the tail at the last good frame.
		// (ReadAll left the offset at the end, which is already right
		// when nothing is cut.)
		if err := l.truncate(off); err != nil {
			return nil, fmt.Errorf("ingest: truncate torn framed-log tail: %w", err)
		}
		if err := l.maybeSync(); err != nil {
			return nil, err
		}
	}
	l.size = off
	return payloads, nil
}

// truncate cuts the file to size and moves the offset there. A failed
// seek after a successful truncate leaves the offset past a zero gap, so
// the log is marked broken.
func (l *FramedLog) truncate(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		l.broken = true
		return fmt.Errorf("seek: %w", err)
	}
	return nil
}

// Append frames, checksums, writes, and (per policy) flushes one payload.
// On failure the log rolls back to the last good frame boundary, so no
// partial or unflushed frame is left to replay; if the rollback fails
// too, the log refuses appends until reopened.
func (l *FramedLog) Append(payload []byte) error {
	if l.broken {
		return fmt.Errorf("ingest: framed log is in a failed state after an unrecoverable partial write; reopen it")
	}
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return fmt.Errorf("ingest: framed-log payload is %d bytes (want 1..%d)", len(payload), maxRecordBytes)
	}
	frame := appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	if _, err := l.f.Write(frame); err != nil {
		return l.rollback(fmt.Errorf("ingest: framed-log append: %w", err))
	}
	if err := l.maybeSync(); err != nil {
		return l.rollback(err)
	}
	l.size += int64(len(frame))
	return nil
}

// rollback truncates back to the last good boundary after a failed
// append and returns cause, marking the log broken if that fails too.
func (l *FramedLog) rollback(cause error) error {
	if err := l.truncate(l.size); err != nil {
		l.broken = true
		return fmt.Errorf("%w (and rollback failed: %v; log disabled until reopen)", cause, err)
	}
	return cause
}

// Reset truncates the log back to its header — the ingest store calls it
// after a snapshot commit makes every logged record redundant. A failed
// truncate leaves the log untouched (the caller's stale records stay
// replayable); a failed seek after it marks the log broken.
func (l *FramedLog) Reset() error {
	if err := l.truncate(int64(len(l.magic))); err != nil {
		return fmt.Errorf("ingest: reset framed log: %w", err)
	}
	l.size = int64(len(l.magic))
	return l.maybeSync()
}

// maybeSync flushes per the fsync policy.
func (l *FramedLog) maybeSync() error {
	if !l.fsync {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("ingest: fsync framed log: %w", err)
	}
	return nil
}

// frames returns the log's intact frames, magic excluded, as of the last
// good boundary.
func (l *FramedLog) frames() ([]byte, error) {
	buf := make([]byte, l.size-int64(len(l.magic)))
	if _, err := l.f.ReadAt(buf, int64(len(l.magic))); err != nil {
		return nil, fmt.Errorf("ingest: read framed log: %w", err)
	}
	return buf, nil
}

// Size returns the log's current byte size (header included).
func (l *FramedLog) Size() int64 { return l.size }

// Close closes the log file, flushing first under the fsync policy.
func (l *FramedLog) Close() error {
	if err := l.maybeSync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

package ingest

import (
	"errors"
	"fmt"
)

// WAL shipping: the replication path of a source. A replica store opens
// with Options.Replica and catches up by pulling the primary's WAL tail
// keyed on its own data version — sequence numbers and the data version
// advance in lockstep (one bump per applied mutation), so the version IS
// the replication cursor. Shipped bytes are raw WAL frames: the replica
// parses them with the same scan recovery uses, appends them to its own
// WAL (original sequence numbers preserved), and applies them, making
// its on-disk state a faithful prefix of the primary's history. A torn
// or truncated shipped tail is tolerated exactly like a torn local WAL
// tail — the intact prefix applies, the rest waits for the next pull.

// ErrReplica reports a local mutation against a replica store: replicas
// apply shipped records only, so their history cannot diverge from the
// primary's.
var ErrReplica = errors.New("ingest: store is a replica (read-only; mutations go to the primary)")

// ErrSnapshotGap reports a catch-up cursor older than the primary's
// snapshot: the records in between were compacted away, so log shipping
// cannot bridge the gap and the replica must be reseeded from a copy of
// the primary's store directory (see docs/OPERATIONS.md).
var ErrSnapshotGap = errors.New("ingest: replica is behind the primary's snapshot; reseed it from a store copy")

// maxShipBytes soft-caps one shipped batch; a replica further behind
// catches up over several pulls, each applied durably before the next.
const maxShipBytes = 8 << 20

// ShipWAL returns the raw WAL frames of every record with sequence number
// beyond after, for a replica whose data version is after. The returned
// version is the store's data version at ship time; tooOld reports that
// the cursor precedes the newest snapshot (the records were compacted
// away — ErrSnapshotGap territory on the replica side). A batch is
// soft-capped at maxShipBytes; the caller pulls again from its new
// version until it reaches the shipped version.
func (st *Store) ShipWAL(after uint64) (frames []byte, version uint64, tooOld bool, err error) {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	if st.closed {
		return nil, 0, false, ErrClosed
	}
	version = st.version.Load()
	if after >= st.seq {
		return nil, version, false, nil // replica is caught up
	}
	if after < st.snapSeq {
		return nil, version, true, nil // compacted away; reseed required
	}
	body, err := st.wal.frames()
	if err != nil {
		return nil, 0, false, err
	}
	var out []byte
	next := recordScanner()
	walkFrames(body, func(off int, payload []byte) bool {
		rec, ok := next(payload)
		if !ok {
			return false
		}
		if rec.Seq > after {
			out = append(out, body[off:off+frameHeader+len(payload)]...)
		}
		return len(out) < maxShipBytes
	})
	return out, version, false, nil
}

// ApplyShipped applies a shipped WAL tail to a replica store: each intact
// frame is decoded, de-duplicated by sequence number, WAL-logged locally
// (original sequence preserved), and applied to the live index, bumping
// the data version — WAL-then-apply, exactly like a primary mutation. A
// record at or below the replica's current sequence is skipped, so a
// replica restarting mid-catch-up (or receiving overlapping batches)
// resumes from its data version without duplicate applies; a sequence
// gap is a hard error (the cursor protocol never produces one). A torn
// tail in frames stops the scan at the last intact record — the applied
// count is returned either way.
func (st *Store) ApplyShipped(frames []byte) (applied int, err error) {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	if st.closed {
		return 0, ErrClosed
	}
	if !st.opts.Replica {
		return 0, errors.New("ingest: ApplyShipped on a non-replica store (local mutations would fork the history)")
	}
	payloads, _ := scanFrames(frames, nil)
	for _, p := range payloads {
		rec, derr := decodeRecord(p)
		if derr != nil {
			break // torn mid-frame content: stop at the intact prefix
		}
		if rec.Seq <= st.seq {
			continue // duplicate from an overlapping batch or a restart
		}
		if rec.Seq != st.seq+1 {
			return applied, fmt.Errorf("ingest: shipped record seq %d does not follow replica seq %d", rec.Seq, st.seq)
		}
		if err := st.logAndApply(rec); err != nil {
			return applied, err
		}
		applied++
	}
	st.maybeCompactLocked()
	return applied, nil
}

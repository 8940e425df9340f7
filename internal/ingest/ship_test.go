package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// openReplica opens a replica store bootstrapped identically to the test
// primary, so version 0 means byte-identical state on both sides.
func openReplica(t *testing.T, dir string) *Store {
	t.Helper()
	return openTestStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: -1, Replica: true})
}

// pull drives one primary→replica catch-up to completion.
func pull(t *testing.T, primary, replica *Store) int {
	t.Helper()
	total := 0
	for {
		frames, version, tooOld, err := primary.ShipWAL(replica.Version())
		if err != nil {
			t.Fatalf("ShipWAL: %v", err)
		}
		if tooOld {
			t.Fatalf("ShipWAL: unexpected snapshot gap at version %d", replica.Version())
		}
		if len(frames) == 0 {
			if replica.Version() != version {
				t.Fatalf("caught up at version %d, primary at %d", replica.Version(), version)
			}
			return total
		}
		n, err := replica.ApplyShipped(frames)
		if err != nil {
			t.Fatalf("ApplyShipped: %v", err)
		}
		if n == 0 {
			t.Fatal("ApplyShipped made no progress on a non-empty batch")
		}
		total += n
	}
}

func TestShipCatchUpMatchesPrimary(t *testing.T) {
	muts := genMutations(40, 11, testSeedDatasets)
	primary := openTestStore(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: -1})
	defer primary.Close()
	rdir := t.TempDir()
	replica := openReplica(t, rdir)

	// Catch up in two stages, with primary mutations continuing in between
	// — the replica resumes from its data version each time.
	applyToStore(t, primary, muts, 25)
	pull(t, primary, replica)
	applyToStore(t, primary, muts[25:], len(muts)-25)
	pull(t, primary, replica)

	if got, want := replica.Version(), primary.Version(); got != want {
		t.Fatalf("replica version = %d, want %d", got, want)
	}
	want := searchFingerprint(t, primary.Index())
	if got := searchFingerprint(t, replica.Index()); !reflect.DeepEqual(got, want) {
		t.Fatal("replica search results differ from primary")
	}
	if err := replica.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	// The shipped records are durable at the replica: a restart recovers
	// them from its own WAL, Bootstrap untouched.
	re, err := Open(rdir, Options{Replica: true})
	if err != nil {
		t.Fatalf("reopen replica: %v", err)
	}
	defer re.Close()
	if got := re.Version(); got != primary.Version() {
		t.Fatalf("reopened replica version = %d, want %d", got, primary.Version())
	}
	if got := searchFingerprint(t, re.Index()); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened replica search results differ from primary")
	}
}

// TestShipTornTailPrefix is the shipping-path twin of
// TestCrashRecoveryPrefix: for ANY prefix of a shipped batch — every
// record boundary and torn cuts inside the final frame — the replica
// applies exactly the intact records and matches an in-process apply of
// that prefix. Same corpus, same tolerance, different entry point.
func TestShipTornTailPrefix(t *testing.T) {
	muts := genMutations(25, 3, testSeedDatasets)
	primary := openTestStore(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: -1})
	defer primary.Close()
	// Shipping from version 0 returns the WAL body verbatim, so frame
	// boundaries fall out of the WAL offsets tracked per mutation.
	boundaries := []int64{0}
	walBase := primary.Stats().WALBytes
	for _, m := range muts {
		var err error
		if m.del {
			_, err = primary.DeleteDataset(m.id)
		} else {
			_, err = primary.PutDataset(m.id, m.name, m.cells)
		}
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, primary.Stats().WALBytes-walBase)
	}

	frames, _, tooOld, err := primary.ShipWAL(0)
	if err != nil || tooOld {
		t.Fatalf("ShipWAL: err=%v tooOld=%v", err, tooOld)
	}
	if int64(len(frames)) != boundaries[len(muts)] {
		t.Fatalf("shipped %d bytes, want %d (WAL body)", len(frames), boundaries[len(muts)])
	}

	applyAt := func(t *testing.T, batch []byte, wantApplied int) {
		t.Helper()
		replica := openReplica(t, t.TempDir())
		defer replica.Close()
		n, err := replica.ApplyShipped(batch)
		if err != nil {
			t.Fatalf("ApplyShipped: %v", err)
		}
		if n != wantApplied {
			t.Fatalf("applied %d records, want %d", n, wantApplied)
		}
		if got := replica.Version(); got != uint64(wantApplied) {
			t.Fatalf("version = %d, want %d", got, wantApplied)
		}
		oracle := oracleIndex(applyOracle(muts, wantApplied, testSeed, testSeedDatasets))
		if !reflect.DeepEqual(searchFingerprint(t, replica.Index()), searchFingerprint(t, oracle)) {
			t.Fatalf("prefix %d: shipped-apply results differ from in-process apply", wantApplied)
		}
	}

	// Every intact prefix.
	for i := 0; i <= len(muts); i++ {
		applyAt(t, frames[:boundaries[i]], i)
	}
	// Torn final record: cuts strictly inside the last frame.
	last, end := boundaries[len(muts)-1], boundaries[len(muts)]
	for _, cut := range []int64{last + 1, last + frameHeader - 1, last + frameHeader, (last + end) / 2, end - 1} {
		applyAt(t, frames[:cut], len(muts)-1)
	}
	// Bit flip in the final record's payload: checksum rejects the tail.
	flipped := append([]byte(nil), frames...)
	flipped[(last+frameHeader+end)/2] ^= 0x40
	applyAt(t, flipped, len(muts)-1)
	// Garbage appended after the last intact record.
	applyAt(t, append(append([]byte(nil), frames...), 0xDE, 0xAD, 0xBE, 0xEF), len(muts))
}

// TestShipResumeAfterRestart restarts a replica mid-catch-up and verifies
// it resumes from its persisted data version without duplicate applies,
// even when the next batch overlaps records it already holds.
func TestShipResumeAfterRestart(t *testing.T) {
	muts := genMutations(30, 9, testSeedDatasets)
	primary := openTestStore(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: -1})
	defer primary.Close()
	applyToStore(t, primary, muts, len(muts))
	frames, _, _, err := primary.ShipWAL(0)
	if err != nil {
		t.Fatal(err)
	}

	rdir := t.TempDir()
	replica := openReplica(t, rdir)
	// Apply a partial batch (a torn transfer), then crash the replica.
	if _, err := replica.ApplyShipped(frames[:len(frames)/2]); err != nil {
		t.Fatal(err)
	}
	mid := replica.Version()
	if mid == 0 || mid == uint64(len(muts)) {
		t.Fatalf("want a strict mid-catch-up version, got %d of %d", mid, len(muts))
	}
	replica.Close()

	re, err := Open(rdir, Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Version() != mid {
		t.Fatalf("restarted replica version = %d, want %d", re.Version(), mid)
	}
	// The whole batch again: records at or below mid must be skipped.
	n, err := re.ApplyShipped(frames)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(muts)-int(mid) {
		t.Fatalf("applied %d records after restart, want %d", n, len(muts)-int(mid))
	}
	if re.Version() != uint64(len(muts)) {
		t.Fatalf("version = %d, want %d", re.Version(), len(muts))
	}
	if !reflect.DeepEqual(searchFingerprint(t, re.Index()), searchFingerprint(t, primary.Index())) {
		t.Fatal("replica results differ from primary after resumed catch-up")
	}
}

func TestShipSnapshotGapReportsTooOld(t *testing.T) {
	muts := genMutations(12, 6, testSeedDatasets)
	primary := openTestStore(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: -1})
	defer primary.Close()
	applyToStore(t, primary, muts, len(muts))
	if err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// The snapshot reset the WAL: a replica at version 0 can no longer
	// catch up by log shipping.
	_, _, tooOld, err := primary.ShipWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	if !tooOld {
		t.Fatal("want tooOld for a cursor behind the snapshot")
	}
	// A caught-up cursor is still fine.
	frames, version, tooOld, err := primary.ShipWAL(primary.Version())
	if err != nil || tooOld || len(frames) != 0 || version != primary.Version() {
		t.Fatalf("caught-up ship: frames=%d version=%d tooOld=%v err=%v", len(frames), version, tooOld, err)
	}
}

func TestReplicaRefusesLocalMutations(t *testing.T) {
	replica := openReplica(t, t.TempDir())
	defer replica.Close()
	if _, err := replica.PutDataset(999, "x", randCells(rand.New(rand.NewSource(1)))); !errors.Is(err, ErrReplica) {
		t.Fatalf("PutDataset on replica: %v, want ErrReplica", err)
	}
	if _, err := replica.DeleteDataset(1); !errors.Is(err, ErrReplica) {
		t.Fatalf("DeleteDataset on replica: %v, want ErrReplica", err)
	}
	// And the inverse: a primary refuses shipped records.
	primary := openTestStore(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: -1})
	defer primary.Close()
	if _, err := primary.ApplyShipped(nil); err == nil {
		t.Fatal("ApplyShipped on a non-replica store must fail")
	}
}

func TestFramedLogRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "member.log")
	magic := []byte("DITSTST\x01")
	l, got, err := OpenFramedLog(path, magic, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log returned %d payloads", len(got))
	}
	var want [][]byte
	for i := 0; i < 9; i++ {
		p := []byte(fmt.Sprintf("event-%d", i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func(t *testing.T) ([][]byte, *FramedLog) {
		t.Helper()
		l, got, err := OpenFramedLog(path, magic, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got, l
	}
	got2, l2 := reopen(t)
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("recovered %q, want %q", got2, want)
	}
	l2.Close()

	// Torn tail: cut into the final frame; recovery truncates to the
	// intact prefix, and appends resume cleanly.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got3, l3 := reopen(t)
	if !reflect.DeepEqual(got3, want[:len(want)-1]) {
		t.Fatalf("torn-tail recovery returned %d payloads, want %d", len(got3), len(want)-1)
	}
	if err := l3.Append([]byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	l3.Close()
	got4, l4 := reopen(t)
	l4.Close()
	if !reflect.DeepEqual(got4, append(append([][]byte(nil), want[:len(want)-1]...), []byte("after-tear"))) {
		t.Fatal("append after torn-tail recovery did not persist cleanly")
	}

	// Wrong magic refuses to open.
	if _, _, err := OpenFramedLog(path, []byte("OTHERMG\x01"), false, nil); err == nil {
		t.Fatal("want error for mismatched magic")
	}
}

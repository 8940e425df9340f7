package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestUnknownManifestFormatRejected: a manifest naming a format this
// binary does not understand — a future one, the previous dsnap/1, or none
// at all, as a store from before dsnap wrote — must fail loudly with an
// error naming the format, not misparse the snapshot.
func TestUnknownManifestFormatRejected(t *testing.T) {
	for _, format := range []string{"dsnap/999", "dsnap/1", ""} {
		dir := t.TempDir()
		st := openTestStore(t, dir, Options{Fsync: FsyncNever})
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		man, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		man.Format = format
		if err := writeManifest(dir, *man); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format %q", format)) {
			t.Fatalf("format %q: Open = %v, want an error naming the format", format, err)
		}
	}
}

// TestMMapStoreParity runs the full mutate/compact/recover cycle with the
// index served from the mmap'd snapshot: results must match the
// heap-resident store and a from-scratch rebuild at every stage, across
// the snapshot swaps that shed the WAL-tail overlay.
func TestMMapStoreParity(t *testing.T) {
	dir := t.TempDir()
	muts := genMutations(60, 9, testSeedDatasets)
	st := openTestStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: 16, MMap: true})
	s := st.Stats()
	if !s.MMap || s.MappedBytes == 0 {
		t.Fatalf("store not serving mmap'd after bootstrap: %+v", s)
	}
	for i := 1; i <= len(muts); i++ {
		applyToStore(t, st, muts[i-1:], 1)
		if i%20 == 0 {
			// Mid-stream checkpoint: snapshot base + live overlay must
			// equal a fresh rebuild of the surviving datasets.
			oracle := oracleIndex(applyOracle(muts, i, testSeed, testSeedDatasets))
			if got := searchFingerprint(t, st.Index()); !reflect.DeepEqual(got, searchFingerprint(t, oracle)) {
				t.Fatalf("after %d mutations: overlay results diverged from rebuild", i)
			}
		}
	}
	// Force a final compaction so the store is freshly swapped, then
	// compare against the oracle.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	oracle := oracleIndex(applyOracle(muts, len(muts), testSeed, testSeedDatasets))
	want := searchFingerprint(t, oracle)
	if got := searchFingerprint(t, st.Index()); !reflect.DeepEqual(got, want) {
		t.Fatal("mmap-served store diverged from fresh rebuild")
	}
	if err := st.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Recover mmap'd and heap-resident: identical either way.
	for _, mm := range []bool{true, false} {
		re, err := Open(dir, Options{MMap: mm})
		if err != nil {
			t.Fatalf("reopen mmap=%v: %v", mm, err)
		}
		if got := searchFingerprint(t, re.Index()); !reflect.DeepEqual(got, want) {
			t.Fatalf("mmap=%v recovery diverged", mm)
		}
		if s := re.Stats(); s.MMap != mm {
			t.Fatalf("Stats().MMap = %v, want %v", s.MMap, mm)
		}
		re.Close()
	}
}

// TestMMapCorruptSnapshotRejected: recovery from a bit-flipped committed
// snapshot must fail cleanly (the operator restores or re-bootstraps; the
// store never serves silently wrong data).
func TestMMapCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{Fsync: FsyncNever})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.dsnap"))
	if len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v", snaps)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mm := range []bool{true, false} {
		if _, err := Open(dir, Options{MMap: mm}); err == nil {
			t.Fatalf("mmap=%v: corrupt committed snapshot must be rejected", mm)
		}
	}
}

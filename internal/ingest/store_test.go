package ingest

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/overlap"
)

// testGrid is the shared world of the ingest tests.
func testGrid() geo.Grid {
	return geo.NewGrid(8, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100})
}

// randCells makes a clustered, non-empty cell set under the test grid.
func randCells(rng *rand.Rand) cellset.Set {
	cx, cy := rng.Float64()*90+5, rng.Float64()*90+5
	n := rng.Intn(40) + 5
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: cx + rng.NormFloat64()*3, Y: cy + rng.NormFloat64()*3}
	}
	return cellset.FromPoints(testGrid(), pts)
}

// seedNodes builds the bootstrap dataset nodes.
func seedNodes(n int, seed int64) []*dataset.Node {
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*dataset.Node, 0, n)
	for i := 0; i < n; i++ {
		if nd := dataset.NewNodeFromCells(i+1, fmt.Sprintf("seed-%d", i+1), randCells(rng)); nd != nil {
			nodes = append(nodes, nd)
		}
	}
	return nodes
}

// bootstrap returns an Options.Bootstrap building the seed index.
func bootstrap(n int, seed int64) func() (*dits.Local, error) {
	return func() (*dits.Local, error) {
		return dits.Build(testGrid(), seedNodes(n, seed), 4), nil
	}
}

// mutation is one oracle-side op mirrored into the store under test.
type mutation struct {
	del   bool
	id    int
	name  string
	cells cellset.Set
}

// genMutations produces a deterministic mix of inserts, updates, and
// deletes that is always applicable in order (deletes target live IDs).
func genMutations(n int, seed int64, liveStart int) []mutation {
	rng := rand.New(rand.NewSource(seed))
	live := make([]int, 0, liveStart+n)
	for i := 1; i <= liveStart; i++ {
		live = append(live, i)
	}
	next := liveStart + 1
	muts := make([]mutation, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < 0.55 || len(live) == 0: // insert
			id := next
			next++
			muts = append(muts, mutation{id: id, name: fmt.Sprintf("ins-%d", id), cells: randCells(rng)})
			live = append(live, id)
		case r < 0.8: // update (re-put an existing ID)
			id := live[rng.Intn(len(live))]
			muts = append(muts, mutation{id: id, name: fmt.Sprintf("upd-%d", id), cells: randCells(rng)})
		default: // delete
			j := rng.Intn(len(live))
			id := live[j]
			live = append(live[:j], live[j+1:]...)
			muts = append(muts, mutation{del: true, id: id})
		}
	}
	return muts
}

// applyOracle applies the first n mutations to a plain map of nodes.
func applyOracle(muts []mutation, n int, seed int64, liveStart int) map[int]*dataset.Node {
	byID := make(map[int]*dataset.Node)
	for _, nd := range seedNodes(liveStart, seed) {
		byID[nd.ID] = nd
	}
	for _, m := range muts[:n] {
		if m.del {
			delete(byID, m.id)
		} else {
			byID[m.id] = dataset.NewNodeFromCells(m.id, m.name, m.cells)
		}
	}
	return byID
}

// oracleIndex builds a fresh index over the oracle's surviving nodes.
func oracleIndex(byID map[int]*dataset.Node) *dits.Local {
	nodes := make([]*dataset.Node, 0, len(byID))
	for _, nd := range byID {
		// Rebuild nodes from raw cells: the oracle's originals may already
		// be indexed elsewhere.
		nodes = append(nodes, dataset.NewNodeFromCells(nd.ID, nd.Name, nd.Cells))
	}
	slices.SortFunc(nodes, func(a, b *dataset.Node) int { return cmp.Compare(a.ID, b.ID) })
	return dits.Build(testGrid(), nodes, 4)
}

// searchFingerprint runs a fixed query workload and returns the ranked
// results — the byte-identical comparison basis of the recovery property.
func searchFingerprint(t *testing.T, idx *dits.Local) [][]overlap.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var out [][]overlap.Result
	for i := 0; i < 8; i++ {
		q := dataset.NewNodeFromCells(-1, "q", randCells(rng))
		if q == nil {
			continue
		}
		out = append(out, (&overlap.DITSSearcher{Index: idx}).TopK(q, 5))
	}
	return out
}

const (
	testSeedDatasets = 12
	testSeed         = 7
)

func openTestStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Bootstrap == nil {
		opts.Bootstrap = bootstrap(testSeedDatasets, testSeed)
	}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

// applyToStore mirrors the first n mutations into the store.
func applyToStore(t *testing.T, st *Store, muts []mutation, n int) {
	t.Helper()
	for i, m := range muts[:n] {
		var err error
		if m.del {
			_, err = st.DeleteDataset(m.id)
		} else {
			_, err = st.PutDataset(m.id, m.name, m.cells)
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
}

func TestStoreMutateAndReopen(t *testing.T) {
	dir := t.TempDir()
	muts := genMutations(40, 2, testSeedDatasets)
	st := openTestStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: -1})
	applyToStore(t, st, muts, len(muts))
	if got, want := st.Version(), uint64(len(muts)); got != want {
		t.Fatalf("version = %d, want %d", got, want)
	}
	want := searchFingerprint(t, st.Index())
	if err := st.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery must not consult Bootstrap.
	re, err := Open(dir, Options{Bootstrap: func() (*dits.Local, error) {
		t.Fatal("Bootstrap called on recovery")
		return nil, nil
	}})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.Version(); got != uint64(len(muts)) {
		t.Fatalf("recovered version = %d, want %d", got, len(muts))
	}
	if re.Stats().Replayed != len(muts) {
		t.Fatalf("replayed = %d, want %d", re.Stats().Replayed, len(muts))
	}
	if got := searchFingerprint(t, re.Index()); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered search results differ from pre-restart results")
	}
	// And both must match a from-scratch rebuild of the surviving datasets.
	oracle := oracleIndex(applyOracle(muts, len(muts), testSeed, testSeedDatasets))
	if got := searchFingerprint(t, oracle); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered search results differ from a fresh rebuild")
	}
}

// TestCrashRecoveryPrefix is the acceptance property: for ANY prefix of
// the WAL — every record boundary and torn cuts inside the final record —
// restart yields an index byte-identical (by search results) to applying
// that prefix in-process.
func TestCrashRecoveryPrefix(t *testing.T) {
	dir := t.TempDir()
	muts := genMutations(25, 3, testSeedDatasets)
	st := openTestStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: -1})
	// Track the WAL offset after each mutation: boundaries[i] is the file
	// size once i mutations are logged.
	boundaries := []int64{st.Stats().WALBytes}
	for _, m := range muts {
		var err error
		if m.del {
			_, err = st.DeleteDataset(m.id)
		} else {
			_, err = st.PutDataset(m.id, m.name, m.cells)
		}
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, st.Stats().WALBytes)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	manifestBytes, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.dsnap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot, got %v (%v)", snaps, err)
	}
	snapBytes, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}

	restartAt := func(t *testing.T, wal []byte, wantApplied int) {
		t.Helper()
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(snaps[0])), snapBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, manifestName), manifestBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, "wal.log"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		defer re.Close()
		if got := re.Stats().Replayed; got != wantApplied {
			t.Fatalf("replayed %d records, want %d", got, wantApplied)
		}
		if err := re.Index().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		oracle := oracleIndex(applyOracle(muts, wantApplied, testSeed, testSeedDatasets))
		if !reflect.DeepEqual(searchFingerprint(t, re.Index()), searchFingerprint(t, oracle)) {
			t.Fatalf("prefix %d: recovered results differ from in-process apply", wantApplied)
		}
		if fi, err := os.Stat(filepath.Join(cdir, "wal.log")); err != nil || fi.Size() != boundaries[wantApplied] {
			t.Fatalf("prefix %d: wal.log not truncated to %d bytes (%v, %v)", wantApplied, boundaries[wantApplied], fi, err)
		}
	}

	// Every intact prefix.
	for i := 0; i <= len(muts); i++ {
		restartAt(t, walBytes[:boundaries[i]], i)
	}
	// Torn final record: cuts strictly inside the last frame.
	last, end := boundaries[len(muts)-1], boundaries[len(muts)]
	for _, cut := range []int64{last + 1, last + frameHeader - 1, last + frameHeader, (last + end) / 2, end - 1} {
		restartAt(t, walBytes[:cut], len(muts)-1)
	}
	// Bit flip in the final record's payload: checksum rejects the tail.
	flipped := append([]byte(nil), walBytes...)
	flipped[(last+frameHeader+end)/2] ^= 0x40
	restartAt(t, flipped, len(muts)-1)
	// Garbage appended after the last intact record.
	garbage := append(append([]byte(nil), walBytes...), 0xDE, 0xAD, 0xBE, 0xEF)
	restartAt(t, garbage, len(muts))
	// A CRC-clean frame whose payload is not a record, and a CRC-clean
	// record that repeats the last sequence number: each ends the intact
	// prefix and is truncated away.
	undecodable := appendFrame(append([]byte(nil), walBytes...), []byte{1, 2, 3})
	restartAt(t, undecodable, len(muts))
	repeated := append(append([]byte(nil), walBytes...), walBytes[last:end]...)
	restartAt(t, repeated, len(muts))
}

// TestRecoverySkipsSnapshottedRecords exercises the crash window between
// manifest commit and WAL reset: records at or below the manifest's
// sequence must be skipped, not re-applied.
func TestRecoverySkipsSnapshottedRecords(t *testing.T) {
	dir := t.TempDir()
	muts := genMutations(20, 4, testSeedDatasets)
	st := openTestStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: -1})
	applyToStore(t, st, muts, 12)
	preSnapWAL, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	applyToStore(t, st, muts[12:], len(muts)-12)
	want := searchFingerprint(t, st.Index())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: prepend the already-snapshotted records back in
	// front of the tail, exactly what a WAL that was never reset holds.
	tail, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	merged := append(append([]byte(nil), preSnapWAL...), tail[len(walMagic):]...)
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), merged, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().Replayed; got != len(muts)-12 {
		t.Fatalf("replayed %d, want %d (snapshotted records must be skipped)", got, len(muts)-12)
	}
	if got := re.Version(); got != uint64(len(muts)) {
		t.Fatalf("version = %d, want %d", got, len(muts))
	}
	if got := searchFingerprint(t, re.Index()); !reflect.DeepEqual(got, want) {
		t.Fatal("results differ after snapshotted-record skip")
	}
}

func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	muts := genMutations(30, 5, testSeedDatasets)
	st := openTestStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: 10})
	applyToStore(t, st, muts, len(muts))
	// The background compactor is asynchronous; wait for it to have
	// committed at least one snapshot and drained the WAL tail below the
	// threshold.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := st.Stats()
		if s.Snapshots >= 1 && s.SinceSnapshot < len(muts) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background snapshot never ran: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := searchFingerprint(t, st.Index())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Version(); got != uint64(len(muts)) {
		t.Fatalf("version = %d, want %d", got, len(muts))
	}
	if re.Stats().Replayed >= len(muts) {
		t.Fatalf("replayed %d records; compaction should have absorbed some", re.Stats().Replayed)
	}
	if got := searchFingerprint(t, re.Index()); !reflect.DeepEqual(got, want) {
		t.Fatal("results differ after compaction + restart")
	}
	// Exactly one snapshot file should survive.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.dsnap"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot file, got %v", snaps)
	}
}

func TestMutationErrors(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer st.Close()
	if _, err := st.DeleteDataset(999999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: err = %v, want ErrNotFound", err)
	}
	if _, err := st.PutDataset(5, "empty", nil); err == nil {
		t.Fatal("put with no cells must fail")
	}
	// A name too long for the log's u16 length prefix is rejected before
	// logging — truncating it only on disk would make the recovered index
	// diverge from the acknowledged live one.
	longName := string(make([]byte, maxNameBytes+1))
	if _, err := st.PutDataset(6, longName, randCells(rand.New(rand.NewSource(2)))); err == nil {
		t.Fatal("put with an over-long name must fail")
	}
	v := st.Version()
	if v != 0 {
		t.Fatalf("failed mutations must not bump the version (got %d)", v)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutDataset(7, "late", randCells(rand.New(rand.NewSource(1)))); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: err = %v, want ErrClosed", err)
	}
}

func TestConcurrentSearchesDuringMutations(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: 8})
	defer st.Close()
	muts := genMutations(120, 6, testSeedDatasets)
	done := make(chan error, 1)
	go func() {
		for _, m := range muts {
			var err error
			if m.del {
				_, err = st.DeleteDataset(m.id)
			} else {
				_, err = st.PutDataset(m.id, m.name, m.cells)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		q := dataset.NewNodeFromCells(-1, "q", randCells(rng))
		st.View(func(idx *dits.Local) {
			rs := (&overlap.DITSSearcher{Index: idx}).TopK(q, 5)
			for j := 1; j < len(rs); j++ {
				if overlap.Better(rs[j], rs[j-1]) {
					t.Errorf("unsorted results under concurrent mutation")
				}
			}
		})
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := st.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTornMagicHeaderRecovers covers a crash during the very first WAL
// init: a partial magic header (no record can have been acknowledged yet)
// must reinitialize, not brick the store.
func TestTornMagicHeaderRecovers(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{Fsync: FsyncNever})
	want := searchFingerprint(t, st.Index())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 7} {
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), walMagic[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("torn %d-byte magic: %v", n, err)
		}
		if got := searchFingerprint(t, re.Index()); !reflect.DeepEqual(got, want) {
			t.Fatalf("torn %d-byte magic: results differ after recovery", n)
		}
		re.Close()
	}
	// A file that is NOT a magic prefix is still rejected loudly.
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("GARBAGE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("non-WAL garbage must be rejected, not reinitialized")
	}
}

func TestStoreDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{Fsync: FsyncNever})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("a second Open of a live store directory must fail")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	re.Close()
}

func TestParseFsyncMode(t *testing.T) {
	if m, err := ParseFsyncMode("always"); err != nil || m != FsyncAlways {
		t.Fatalf("always: %v %v", m, err)
	}
	if m, err := ParseFsyncMode("never"); err != nil || m != FsyncNever {
		t.Fatalf("never: %v %v", m, err)
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Fatal("bad mode must error")
	}
}

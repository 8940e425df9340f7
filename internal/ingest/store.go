package ingest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/index/dits"
	"dits/internal/index/ditsfile"
	"dits/internal/metrics"
)

// DefaultSnapshotEvery is the number of mutations between automatic
// background snapshots when Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 256

// ErrNotFound reports a delete of a dataset ID the index does not hold.
var ErrNotFound = errors.New("ingest: dataset not found")

// ErrClosed reports a mutation against a closed store.
var ErrClosed = errors.New("ingest: store is closed")

// Options configure a store.
type Options struct {
	// Fsync is the WAL flush policy (default FsyncAlways).
	Fsync FsyncMode
	// SnapshotEvery is the number of applied mutations between automatic
	// background snapshots. Zero means DefaultSnapshotEvery; a negative
	// value disables automatic snapshots (Snapshot can still be called).
	SnapshotEvery int
	// Bootstrap builds the initial index the first time a store directory
	// is opened (no manifest yet). It is not called on recovery: a
	// recovered store's state comes from its snapshot and WAL, never from
	// re-reading the original source data.
	Bootstrap func() (*dits.Local, error)
	// MMap serves the snapshot base mmap'd and searched in place instead
	// of heap-resident: leaves fault in on first touch and the OS may
	// reclaim cold pages, bounding RSS below the index size. The WAL tail
	// is layered on top as an in-memory overlay (mutations go straight
	// into the file-backed index), and each committed snapshot swaps the
	// live index onto a fresh mapping, shedding the accumulated overlay.
	// Ignored on platforms without mmap support.
	MMap bool
	// Replica opens the store as a read-only replica: local mutations
	// (PutDataset / DeleteDataset) are refused with ErrReplica and state
	// advances only through ApplyShipped, which replays the primary's WAL
	// records verbatim — same sequence numbers, same data versions. A
	// replica bootstraps from the same Bootstrap as its primary (or from a
	// copied store directory) and catches up by WAL shipping (ship.go).
	Replica bool
}

// Store is the durable write path of one source: it owns the live DITS-L
// index, logs every mutation to the WAL before applying it, compacts the
// log into snapshots in the background, and recovers the index on open.
//
// Concurrency: mutations and snapshots serialize on an internal write
// lock; searches run concurrently with each other and with the disk I/O
// of a snapshot through View, blocking only for the in-memory apply of a
// mutation. The data version is monotonic across restarts (it is persisted
// in the manifest and advanced by WAL replay).
type Store struct {
	dir  string
	opts Options

	// writeMu serializes mutations and snapshots end-to-end (WAL append,
	// apply, manifest commit). mu guards the index itself: searches hold
	// it shared, the in-memory apply holds it exclusively. Lock order:
	// writeMu before mu.
	writeMu sync.Mutex
	mu      sync.RWMutex

	idx *dits.Local
	// reader backs idx when it is mmap-served; retired holds superseded
	// readers whose mappings may still be aliased by in-flight search
	// results, so they unmap only at Close (their resident pages are
	// dropped on retirement, which is what actually frees memory).
	reader    *ditsfile.Reader
	retired   []*ditsfile.Reader
	wal       *FramedLog
	lock      *os.File      // flock-held LOCK file: one process per store dir
	seq       uint64        // last WAL sequence number issued
	snapSeq   uint64        // sequence covered by the newest committed snapshot
	version   atomic.Uint64 // data version: one bump per applied mutation
	sinceSnap int           // mutations applied since the last snapshot
	replayed  int           // records replayed by Open (for operators)
	snapshots atomic.Int64  // snapshots committed since Open

	closed     bool
	compacting atomic.Bool
	wg         sync.WaitGroup
	lastErr    error // last background-snapshot failure
}

// Open opens the store directory, recovering state when it exists: load
// the manifest's snapshot, replay the WAL tail (records past the
// snapshot), and truncate a torn final record. A fresh directory is
// bootstrapped from opts.Bootstrap and immediately anchored with an
// initial snapshot, so every subsequent recovery has a base state.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: create store dir: %w", err)
	}
	st := &Store{dir: dir, opts: opts}
	// One process per store directory: two writers appending to the same
	// WAL through independent offsets would interleave garbage that the
	// next recovery truncates away as a torn tail — acknowledged
	// mutations silently lost. An advisory file lock (released by the
	// kernel even on a crash, so no stale-lockfile handling) turns that
	// into an immediate startup error.
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ingest: open lock file: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("ingest: %s is already open in another process: %w", dir, err)
	}
	st.lock = lock
	opened := false
	defer func() {
		if !opened { // any failure below: release the lock
			lock.Close()
		}
	}()
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if man != nil {
		if err := st.loadSnapshot(man); err != nil {
			return nil, err
		}
		st.seq, st.snapSeq = man.Seq, man.Seq
		st.version.Store(man.Version)
	} else {
		if opts.Bootstrap == nil {
			return nil, fmt.Errorf("ingest: %s holds no store and no Bootstrap was given", dir)
		}
		st.idx, err = opts.Bootstrap()
		if err != nil {
			return nil, fmt.Errorf("ingest: bootstrap: %w", err)
		}
		if st.idx == nil {
			return nil, fmt.Errorf("ingest: bootstrap returned no index")
		}
		if err := st.commitSnapshot(0, 0); err != nil {
			return nil, err
		}
	}

	fsync := opts.Fsync == FsyncAlways
	wal, recs, err := openWAL(filepath.Join(dir, "wal.log"), fsync)
	if err != nil {
		return nil, err
	}
	st.wal = wal
	for _, rec := range recs {
		if rec.Seq <= st.snapSeq {
			// Redundant record from a crash between manifest commit and
			// WAL reset; the snapshot already contains it.
			continue
		}
		if err := st.apply(rec); err != nil {
			wal.Close()
			return nil, fmt.Errorf("ingest: replay seq %d: %w", rec.Seq, err)
		}
		st.seq = rec.Seq
		st.version.Add(1)
		st.replayed++
		st.sinceSnap++
	}
	opened = true
	return st, nil
}

// loadSnapshot recovers the index from the manifest's dsnap snapshot
// file. Corruption surfaces as a clean error here — snapshots commit via
// rename, so a torn WRITE leaves the previous manifest intact (that crash
// recovers from the old snapshot plus the full WAL); an error on a
// committed snapshot means real damage and refuses to serve rather than
// serving wrong data.
func (st *Store) loadSnapshot(man *manifest) error {
	path := filepath.Join(st.dir, man.Snapshot)
	if st.opts.MMap {
		r, err := ditsfile.Open(path, ditsfile.Options{MMap: true, VerifyData: true})
		if err != nil {
			return fmt.Errorf("ingest: load snapshot %s: %w", man.Snapshot, err)
		}
		st.idx, st.reader = r.Index(), r
		return nil
	}
	idx, err := ditsfile.LoadHeap(path)
	if err != nil {
		return fmt.Errorf("ingest: load snapshot %s: %w", man.Snapshot, err)
	}
	st.idx = idx
	return nil
}

// apply performs one mutation on the in-memory index. Put is an upsert;
// delete requires the ID to exist.
func (st *Store) apply(rec walRecord) error {
	switch rec.Op {
	case opPut:
		nd := dataset.NewNodeFromCells(rec.ID, rec.Name, rec.Cells)
		if nd == nil {
			return fmt.Errorf("ingest: dataset %d has no cells", rec.ID)
		}
		if st.idx.Get(rec.ID) != nil {
			return st.idx.Update(nd)
		}
		return st.idx.Insert(nd)
	case opDelete:
		if st.idx.Get(rec.ID) == nil {
			return fmt.Errorf("%w: id %d", ErrNotFound, rec.ID)
		}
		return st.idx.Delete(rec.ID)
	}
	return fmt.Errorf("ingest: unknown opcode %d", rec.Op)
}

// Index returns the live index. Its contents mutate, and with
// Options.MMap the POINTER itself changes at every committed snapshot
// (the store swaps onto the fresh mapping); concurrent readers must go
// through View, which always observes the current index.
func (st *Store) Index() *dits.Local {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.idx
}

// View runs fn with shared (read) access to the index: any number of Views
// proceed concurrently, and mutations wait for them only during the
// in-memory apply step.
func (st *Store) View(fn func(idx *dits.Local)) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	fn(st.idx)
}

// Version returns the store's data version: it starts at 0, bumps by one
// per applied mutation, and is monotonic across restarts.
func (st *Store) Version() uint64 { return st.version.Load() }

// PutDataset durably upserts a dataset: the mutation is WAL-logged (and
// flushed, per policy) before the index changes, and the returned version
// is the data version after the apply.
func (st *Store) PutDataset(id int, name string, cells cellset.Set) (uint64, error) {
	if cells.IsEmpty() {
		return 0, fmt.Errorf("ingest: dataset %d has no cells", id)
	}
	return st.mutate(walRecord{Op: opPut, ID: id, Name: name, Cells: cells})
}

// DeleteDataset durably removes a dataset by ID. Deleting an ID the index
// does not hold returns ErrNotFound and logs nothing.
func (st *Store) DeleteDataset(id int) (uint64, error) {
	return st.mutate(walRecord{Op: opDelete, ID: id})
}

// mutate runs the WAL-then-apply sequence for one mutation.
func (st *Store) mutate(rec walRecord) (uint64, error) {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	if st.closed {
		return 0, ErrClosed
	}
	if st.opts.Replica {
		return 0, ErrReplica
	}
	// Validate against the current index before logging, so the WAL only
	// ever holds records that apply cleanly on replay. No search or other
	// mutation can interleave: mutations hold writeMu and index reads
	// cannot observe a half-applied state (apply runs under mu).
	if rec.Op == opDelete && st.idx.Get(rec.ID) == nil {
		return 0, fmt.Errorf("%w: id %d", ErrNotFound, rec.ID)
	}
	rec.Seq = st.seq + 1
	if err := st.logAndApply(rec); err != nil {
		return 0, err
	}
	st.maybeCompactLocked()
	return st.version.Load(), nil
}

// logAndApply logs one record, then applies it to the index and bumps
// the data version. The caller holds writeMu.
func (st *Store) logAndApply(rec walRecord) error {
	if err := appendRecord(st.wal, rec); err != nil {
		return err
	}
	st.seq = rec.Seq
	st.mu.Lock()
	err := st.apply(rec)
	if err == nil {
		st.version.Add(1)
	}
	st.mu.Unlock()
	if err != nil {
		// The record was validated (or, shipped, applied by the primary):
		// WAL and index now disagree, so surface it loudly.
		return fmt.Errorf("ingest: apply seq %d: %w", rec.Seq, err)
	}
	st.sinceSnap++
	return nil
}

// snapshotEvery resolves the automatic-snapshot threshold.
func (st *Store) snapshotEvery() int {
	switch {
	case st.opts.SnapshotEvery > 0:
		return st.opts.SnapshotEvery
	case st.opts.SnapshotEvery < 0:
		return 0
	}
	return DefaultSnapshotEvery
}

// maybeCompactLocked starts a background snapshot when enough mutations
// accumulated. The caller holds writeMu; the snapshot goroutine re-acquires
// it, so compaction never blocks the mutation that triggered it.
func (st *Store) maybeCompactLocked() {
	every := st.snapshotEvery()
	if every <= 0 || st.sinceSnap < every || !st.compacting.CompareAndSwap(false, true) {
		return
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		defer st.compacting.Store(false)
		if err := st.Snapshot(); err != nil && !errors.Is(err, ErrClosed) {
			st.writeMu.Lock()
			st.lastErr = err
			st.writeMu.Unlock()
		}
	}()
}

// Snapshot compacts the log: write the current index as a snapshot file,
// commit the manifest, and truncate the WAL. Mutations are blocked for the
// duration; searches are not (the index encode runs under the shared
// lock). Safe to call at any time, including concurrently with mutations.
func (st *Store) Snapshot() error {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if st.seq == st.snapSeq {
		return nil // nothing new since the last snapshot
	}
	st.lastErr = nil // a completed snapshot supersedes any earlier failure
	if err := st.commitSnapshot(st.seq, st.version.Load()); err != nil {
		return err
	}
	if err := st.wal.Reset(); err != nil {
		return err
	}
	st.sinceSnap = 0
	return nil
}

// commitSnapshot writes the index as snap-<seq>.dsnap (the binary
// ditsfile format) and commits the manifest pointing at it. The caller holds writeMu (or,
// during Open, has exclusive ownership). Crash windows: before the
// manifest commit the old manifest + full WAL still recover everything;
// after it, leftover WAL records at or below seq are skipped by their
// sequence numbers.
func (st *Store) commitSnapshot(seq, version uint64) error {
	// The index streams straight into the temp file — no in-memory copy
	// of the encoding. Searches proceed under the shared lock throughout;
	// mutations are already excluded by writeMu.
	name := fmt.Sprintf("snap-%016d.dsnap", seq)
	if err := replaceFile(st.dir, name, func(f *os.File) error {
		st.mu.RLock()
		defer st.mu.RUnlock()
		return ditsfile.Write(f, st.idx)
	}); err != nil {
		return err
	}
	if err := writeManifest(st.dir, manifest{Snapshot: name, Format: formatDSnap, Seq: seq, Version: version}); err != nil {
		return err
	}
	st.snapSeq = seq
	st.snapshots.Add(1)
	st.swapReader(filepath.Join(st.dir, name))
	// Old snapshots are now unreachable from the manifest; reclaim them.
	// (A retired reader's unlinked mapping stays valid until it unmaps.)
	if olds, err := filepath.Glob(filepath.Join(st.dir, "snap-*.dsnap")); err == nil {
		for _, old := range olds {
			if filepath.Base(old) != name {
				os.Remove(old)
			}
		}
	}
	return nil
}

// swapReader points the live index at the just-committed snapshot when
// the store serves mmap'd. The new reader's index equals the current
// in-memory state (the snapshot was taken under writeMu), so the swap is
// invisible to searches except that the WAL-tail overlay and any
// materialized leaf copies become garbage — RSS drops back to the cold
// mapping. The old reader is retired, not closed: results still in
// flight may alias its mapping. A swap failure is not a durability
// failure (the snapshot is committed); the store just keeps serving the
// current index.
func (st *Store) swapReader(path string) {
	if !st.opts.MMap {
		return
	}
	r, err := ditsfile.Open(path, ditsfile.Options{MMap: true})
	if err != nil {
		st.lastErr = fmt.Errorf("ingest: reopen snapshot mmap: %w", err)
		return
	}
	st.mu.Lock()
	old := st.reader
	st.idx, st.reader = r.Index(), r
	st.mu.Unlock()
	if old != nil {
		old.DropResident()
		st.retired = append(st.retired, old)
	}
}

// Stats is an operator snapshot of the store's durability state.
type Stats struct {
	Version       uint64 // data version (mutations applied over the store's lifetime)
	Seq           uint64 // last WAL sequence issued
	SnapshotSeq   uint64 // sequence covered by the newest snapshot
	SinceSnapshot int    // mutations in the WAL tail (the live overlay on an mmap'd base)
	Replayed      int    // records replayed by the last Open
	Snapshots     int64  // snapshots committed since Open
	WALBytes      int64  // current WAL file size
	Fsync         string // flush policy
	Format        string // snapshot format written by compaction
	MMap          bool   // whether the index base is served mmap'd
	MappedBytes   int64  // bytes of the live snapshot mapping (0 when heap-resident)
	ResidentBytes int64  // estimated resident bytes of the file-backed index
	LeafLoads     int64  // leaves materialized from the live mapping
	LeafLoadErrs  int64  // leaf materializations that failed validation
	LastError     string // last background-snapshot failure, if any
}

// Stats returns the store's durability counters.
func (st *Store) Stats() Stats {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	s := Stats{
		Version:       st.version.Load(),
		Seq:           st.seq,
		SnapshotSeq:   st.snapSeq,
		SinceSnapshot: st.sinceSnap,
		Replayed:      st.replayed,
		Snapshots:     st.snapshots.Load(),
		WALBytes:      st.wal.Size(),
		Fsync:         st.opts.Fsync.String(),
		Format:        formatDSnap,
		MMap:          st.reader != nil,
	}
	if st.reader != nil {
		s.MappedBytes = st.reader.MappedBytes()
		s.ResidentBytes = st.reader.ResidentEstBytes()
		s.LeafLoads = st.reader.LeafLoads()
		s.LeafLoadErrs = st.reader.LoadErrors()
	}
	if st.lastErr != nil {
		s.LastError = st.lastErr.Error()
	}
	return s
}

// Register exposes the store's durability counters on a metrics registry
// under the dits_ingest_* names. The function-backed instruments read the
// same state Stats does, so exposition and the JSON stats never disagree.
func (st *Store) Register(r *metrics.Registry) {
	r.RegisterCounterFunc("dits_ingest_mutations_total",
		"Mutations applied over the store's lifetime", func() float64 {
			return float64(st.version.Load())
		})
	r.RegisterCounterFunc("dits_ingest_snapshots_total",
		"Snapshots committed since open", func() float64 {
			return float64(st.snapshots.Load())
		})
	r.RegisterGaugeFunc("dits_ingest_wal_bytes", "Current WAL file size",
		func() float64 { return float64(st.Stats().WALBytes) })
	r.RegisterGaugeFunc("dits_ingest_wal_tail_mutations",
		"Mutations in the WAL tail not yet covered by a snapshot (the in-memory overlay on an mmap'd base)",
		func() float64 { return float64(st.Stats().SinceSnapshot) })
	r.RegisterGaugeFunc("dits_index_mapped_bytes",
		"Bytes of the live snapshot mapping (0 when the index is heap-resident)",
		func() float64 { return float64(st.Stats().MappedBytes) })
	r.RegisterGaugeFunc("dits_index_resident_est_bytes",
		"Estimated resident bytes of the file-backed index (skeleton + materialized leaves)",
		func() float64 { return float64(st.Stats().ResidentBytes) })
	r.RegisterCounterFunc("dits_index_leaf_loads_total",
		"Leaves materialized from the snapshot mapping", func() float64 {
			return float64(st.Stats().LeafLoads)
		})
	r.RegisterCounterFunc("dits_index_leaf_load_errors_total",
		"Leaf materializations rejected by payload validation", func() float64 {
			return float64(st.Stats().LeafLoadErrs)
		})
}

// Close flushes and closes the WAL after waiting out any background
// snapshot. Further mutations return ErrClosed; the index stays readable.
func (st *Store) Close() error {
	st.writeMu.Lock()
	if st.closed {
		st.writeMu.Unlock()
		return nil
	}
	st.closed = true
	st.writeMu.Unlock()
	st.wg.Wait()
	err := st.wal.Close()
	// Unmap last: nothing may alias the mappings after Close returns.
	for _, r := range st.retired {
		r.Close()
	}
	st.retired = nil
	if st.reader != nil {
		if cerr := st.reader.Close(); err == nil {
			err = cerr
		}
		st.reader = nil
	}
	st.lock.Close() // releases the flock
	return err
}

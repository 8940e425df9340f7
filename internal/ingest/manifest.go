package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// manifestSchema versions the manifest format.
const manifestSchema = "dits-ingest-manifest/1"

// manifestName is the manifest's filename inside the store directory.
const manifestName = "MANIFEST"

// formatDSnap marks a snapshot in the binary ditsfile format, the only
// one a store reads. A manifest without it predates the format (its
// snapshot is gob) and is refused: reseed such a store from its source.
const formatDSnap = "dsnap/1"

// manifest commits a snapshot: it names the snapshot file and records the
// mutation sequence number and data version the snapshot covers. Records
// in the WAL with Seq <= manifest.Seq are redundant and skipped on replay
// (a crash between manifest commit and WAL reset leaves them behind).
type manifest struct {
	Schema   string `json:"schema"`
	Snapshot string `json:"snapshot"`         // snapshot filename within the store dir
	Format   string `json:"format,omitempty"` // snapshot encoding: formatDSnap
	Seq      uint64 `json:"seq"`              // last mutation included in the snapshot
	Version  uint64 `json:"version"`          // data version at the snapshot point
}

// readManifest loads the store's manifest, returning (nil, nil) when the
// store directory has never committed one.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ingest: parse manifest: %w", err)
	}
	if m.Schema != manifestSchema {
		return nil, fmt.Errorf("ingest: manifest has schema %q, want %q", m.Schema, manifestSchema)
	}
	if m.Snapshot == "" || m.Snapshot != filepath.Base(m.Snapshot) {
		return nil, fmt.Errorf("ingest: manifest names invalid snapshot %q", m.Snapshot)
	}
	if m.Format != formatDSnap {
		return nil, fmt.Errorf("ingest: manifest has snapshot format %q, want %q", m.Format, formatDSnap)
	}
	return &m, nil
}

// writeManifest commits a manifest atomically: write to a temp file, fsync
// it, rename over MANIFEST, fsync the directory. After the rename either
// the old or the new manifest is fully in place — never a torn mix.
func writeManifest(dir string, m manifest) error {
	m.Schema = manifestSchema
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := writeFileSynced(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("ingest: commit manifest: %w", err)
	}
	return syncDir(dir)
}

// writeFileSynced writes data to path and flushes it to stable storage.
func writeFileSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ingest: create %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("ingest: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ingest: fsync %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// syncDir flushes directory metadata (renames, creates) to stable
// storage. Real flush failures (ENOSPC, EIO) propagate; EINVAL is
// tolerated because some filesystems reject fsync on directories while
// still ordering the metadata safely.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ingest: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return fmt.Errorf("ingest: fsync dir: %w", err)
	}
	return nil
}

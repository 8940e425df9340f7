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
// one a store reads. A manifest naming another — none (a gob snapshot) or
// dsnap/1 (whose leaves also carried an all-children summary) — is
// refused: reseed such a store from its source.
const formatDSnap = "dsnap/2"

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

// writeManifest commits a manifest atomically through replaceFile: after
// the rename either the old or the new manifest is fully in place —
// never a torn mix.
func writeManifest(dir string, m manifest) error {
	m.Schema = manifestSchema
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return replaceFile(dir, manifestName, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// replaceFile atomically replaces dir/name with what write produces:
// write a temp file beside it, fsync it, close it, rename it over name,
// and fsync the directory. A failure before the rename removes the temp
// file and leaves name as it was.
func replaceFile(dir, name string, write func(f *os.File) error) error {
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ingest: replace %s: %w", name, err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ingest: replace %s: %w", name, err)
	}
	return syncDir(dir)
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

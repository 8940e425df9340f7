package ingest

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var testMagic = []byte("DITSTST\x01")

// TestFramedLogBrokenUntilReopen: an append whose rollback also fails
// leaves the log refusing appends until it is reopened, and the reopened
// log holds exactly the appends acknowledged before the failure.
func TestFramedLogBrokenUntilReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.log")
	l, _, err := OpenFramedLog(path, testMagic, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	// With the file closed under it, the write fails and so does the
	// truncate that would roll it back.
	l.f.Close()
	if err := l.Append([]byte("lost")); err == nil || !strings.Contains(err.Error(), "rollback failed") {
		t.Fatalf("append on a closed file: %v, want a failed rollback", err)
	}
	if err := l.Append([]byte("refused")); err == nil || !strings.Contains(err.Error(), "failed state") {
		t.Fatalf("append after a failed rollback: %v, want the failed-state refusal", err)
	}

	l2, got, err := OpenFramedLog(path, testMagic, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]byte{[]byte("kept")}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened log holds %q, want %q", got, want)
	}
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	l2.Close()
}

// FuzzFramedLog opens a log file made of (a prefix of) the magic and
// arbitrary bytes: recovery must never panic, must return exactly the
// intact prefix of frames and truncate the file to it, must be stable on
// reopen, and must leave a log that appends round-trip through.
func FuzzFramedLog(f *testing.F) {
	full := uint8(len(testMagic))
	var frames []byte
	for _, p := range []string{"alpha", "b", "gamma-gamma"} {
		frames = appendFrame(frames, []byte(p))
	}
	flipped := append([]byte(nil), frames...)
	flipped[len(flipped)-2] ^= 0x10
	absurd := binary.LittleEndian.AppendUint32(nil, 1<<31)
	absurd = append(absurd, 0, 0, 0, 0, 'x')
	f.Add(full, []byte{})
	f.Add(uint8(3), []byte{})
	f.Add(full, frames)
	f.Add(full, flipped)
	f.Add(full, absurd)
	f.Fuzz(func(t *testing.T, header uint8, body []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		head := testMagic[:min(int(header), len(testMagic))]
		file := append(append([]byte(nil), head...), body...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := OpenFramedLog(path, testMagic, false, nil)
		if len(file) < len(testMagic) && bytes.HasPrefix(testMagic, file) {
			// A header torn during init: reinitialized, empty.
			body = nil
		} else if !bytes.HasPrefix(file, testMagic) {
			if err == nil {
				t.Fatalf("file %q without the magic opened", file)
			}
			return
		}
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var prefix []byte
		for _, p := range got {
			prefix = appendFrame(prefix, p)
		}
		if !bytes.HasPrefix(body, prefix) {
			t.Fatalf("payloads %q are not a prefix of the input", got)
		}
		if rest := body[len(prefix):]; len(rest) >= frameHeader {
			n := int(binary.LittleEndian.Uint32(rest))
			if n > 0 && n <= maxRecordBytes && frameHeader+n <= len(rest) &&
				bytes.Equal(appendFrame(nil, rest[frameHeader:frameHeader+n]), rest[:frameHeader+n]) {
				t.Fatalf("recovery stopped before an intact frame at offset %d", len(prefix))
			}
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(append([]byte(nil), testMagic...), prefix...); !bytes.Equal(onDisk, want) {
			t.Fatalf("file is %d bytes after recovery, want magic + %d", len(onDisk), len(prefix))
		}
		l.Close()

		l, again, err := OpenFramedLog(path, testMagic, false, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if len(again) != len(got) || (len(got) > 0 && !reflect.DeepEqual(again, got)) {
			t.Fatalf("reopen returned %q, first open %q", again, got)
		}
		if err := l.Append([]byte("appended")); err != nil {
			t.Fatalf("append: %v", err)
		}
		l.Close()
		l, last, err := OpenFramedLog(path, testMagic, false, nil)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		l.Close()
		if want := append(again, []byte("appended")); !reflect.DeepEqual(last, want) {
			t.Fatalf("after append the log holds %q, want %q", last, want)
		}
	})
}

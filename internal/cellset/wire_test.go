package cellset

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// wireTestSets covers every encoding form: empty, flat (≤ flatWireMax),
// container with array chunks, container with a bitmap chunk, and sets
// spanning many chunks with large key gaps.
func wireTestSets() map[string]Set {
	dense := make([]uint64, 0, 5000)
	for i := 0; i < 5000; i++ { // >arrayMaxLen in one chunk: bitmap form
		dense = append(dense, uint64(i))
	}
	sparse := make([]uint64, 0, 300)
	for i := 0; i < 300; i++ { // 1 cell per chunk, huge key deltas
		sparse = append(sparse, uint64(i)*1e9)
	}
	rng := rand.New(rand.NewSource(7))
	random := make([]uint64, 0, 2000)
	for i := 0; i < 2000; i++ {
		random = append(random, rng.Uint64()>>8)
	}
	return map[string]Set{
		"empty":     nil,
		"single":    New(42),
		"flat":      New(1, 2, 3, 100, 1<<40, 1<<63),
		"flat-max":  New(seq(0, flatWireMax, 3)...),
		"array":     New(seq(0, 200, 5)...),
		"bitmap":    New(dense...),
		"sparse":    New(sparse...),
		"random":    New(random...),
		"max-cell":  New(0, ^uint64(0)),
		"two-forms": New(append(append([]uint64{}, dense...), sparse...)...),
	}
}

func seq(start uint64, n, step int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = start + uint64(i*step)
	}
	return out
}

// TestWireRoundTrip: every set survives Set → wire → Set and wire →
// Compact → Set unchanged, and the remainder handling is exact.
func TestWireRoundTrip(t *testing.T) {
	for name, s := range wireTestSets() {
		t.Run(name, func(t *testing.T) {
			wire := s.AppendWire(nil)
			tail := []byte{0xde, 0xad}
			got, rest, err := DecodeWireSet(append(append([]byte{}, wire...), tail...))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rest, tail) {
				t.Fatalf("decoder consumed the wrong amount: rest %x", rest)
			}
			if !reflect.DeepEqual(got, s) {
				t.Fatalf("set round trip: got %d cells, want %d", len(got), len(s))
			}
			c, rest, err := DecodeWireCompact(wire)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("compact decoder left %d bytes", len(rest))
			}
			if cs := c.Set(); !reflect.DeepEqual(cs, s) && !(len(cs) == 0 && len(s) == 0) {
				t.Fatalf("compact round trip diverged: %d cells, want %d", len(cs), len(s))
			}
		})
	}
}

// TestWireCompactByteEquality: for every set, flat form included,
// Compact.AppendWire must produce byte-identical output to Set.AppendWire
// — the compact path writes raw container words with no flat round-trip,
// and this pins that it is a pure fast path.
func TestWireCompactByteEquality(t *testing.T) {
	for name, s := range wireTestSets() {
		t.Run(name, func(t *testing.T) {
			viaSet := s.AppendWire(nil)
			viaCompact := FromSet(s).AppendWire(nil)
			if !bytes.Equal(viaSet, viaCompact) {
				t.Fatalf("Set and Compact encodings differ: %d vs %d bytes", len(viaSet), len(viaCompact))
			}
			// And a decoded Compact re-encodes identically.
			c, _, err := DecodeWireCompact(viaSet)
			if err != nil {
				t.Fatal(err)
			}
			if again := c.AppendWire(nil); !bytes.Equal(viaSet, again) {
				t.Fatal("decoded Compact does not re-encode to identical bytes")
			}
		})
	}
}

// TestWireAppendZeroAlloc: with capacity already in dst, AppendWire must
// not allocate — it is the inner loop of the binary codec's encode path.
func TestWireAppendZeroAlloc(t *testing.T) {
	for name, s := range wireTestSets() {
		s := s
		dst := make([]byte, 0, len(s.AppendWire(nil))+64)
		c := FromSet(s)
		if allocs := testing.AllocsPerRun(100, func() {
			dst = s.AppendWire(dst[:0])
		}); allocs != 0 {
			t.Errorf("%s: Set.AppendWire allocated %.1f times", name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			dst = c.AppendWire(dst[:0])
		}); allocs != 0 {
			t.Errorf("%s: Compact.AppendWire allocated %.1f times", name, allocs)
		}
	}
}

// TestWireDecodeRejectsCorrupt: hand-built hostile inputs must error —
// never panic, never mis-decode.
func TestWireDecodeRejectsCorrupt(t *testing.T) {
	valid := New(seq(0, 200, 5)...).AppendWire(nil)
	cases := map[string][]byte{
		"empty input":     {},
		"unknown form":    {9},
		"flat no count":   {wireFlat},
		"flat zero count": {wireFlat, 0},
		"flat count lies": {wireFlat, 200, 1, 1},
		"flat truncated":  New(1, 2, 3).AppendWire(nil)[:3],
		"chunks headless": {wireChunks, 5},
		"chunks huge total": {
			wireChunks, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 1,
		},
		"chunk truncated": valid[:len(valid)-3],
		"chunk card zero": {wireChunks, 1, 1, 0, 0},
	}
	for name, data := range cases {
		if _, _, err := DecodeWireSet(data); err == nil {
			t.Errorf("%s: DecodeWireSet accepted corrupt input", name)
		}
		if _, _, err := DecodeWireCompact(data); err == nil {
			t.Errorf("%s: DecodeWireCompact accepted corrupt input", name)
		}
	}
	// Array chunks must be strictly increasing: total=2, one chunk, key 0,
	// n=2, then cells 9 and 1 out of order.
	bad := []byte{wireChunks, 2, 1, 0, 2, 9, 0, 1, 0}
	if _, _, err := DecodeWireSet(bad); err == nil {
		t.Error("out-of-order array chunk accepted")
	}
}

// FuzzWireDecode drives both decoders over arbitrary input: they must
// return without panicking, and anything they accept must re-encode to
// an equivalent set.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireTestSets() {
		f.Add(s.AppendWire(nil))
	}
	f.Add([]byte{wireChunks, 10, 1, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _, err := DecodeWireSet(data)
		c, _, cerr := DecodeWireCompact(data)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("decoders disagree: set err %v, compact err %v", err, cerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(c.Set(), s) && len(s) != 0 {
			t.Fatal("set and compact decoders produced different sets")
		}
		wire := s.AppendWire(nil)
		again, _, err := DecodeWireSet(wire)
		if err != nil {
			t.Fatalf("re-encoded set does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatal("re-encoded set decodes differently")
		}
	})
}

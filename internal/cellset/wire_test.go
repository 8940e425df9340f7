package cellset

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// wireTestSets covers every encoding form and the edges of the array
// chunk's byte deltas: empty, tiny sets, deltas of 255 (one byte) and
// 256 (two bytes), a full 4096-cell array, a chunk ending at 65535,
// chunks of 7, 8 and 9 cells (the control-byte edges), a bitmap chunk,
// and sets spanning many chunks with large key gaps.
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
	var edges []uint64 // chunks of 7, 8 and 9 cells
	for i, n := range []int{7, 8, 9} {
		edges = append(edges, seq(uint64(i)<<chunkBits|300, n, 257)...)
	}
	return map[string]Set{
		"empty":  nil,
		"single": New(42),
		// Tiny sets, which earlier wire versions wrote in a flat form
		// and which now take the chunk form like any other.
		"flat":       New(1, 2, 3, 100, 1<<40, 1<<63),
		"flat-max":   New(seq(0, 64, 3)...),
		"gap-255":    New(seq(0, 200, 256)...),
		"gap-256":    New(seq(0, 200, 257)...),
		"array-4096": New(seq(5<<chunkBits, arrayMaxLen, 16)...),
		"chunk-end":  New(7<<chunkBits|65000, 7<<chunkBits|65534, 7<<chunkBits|chunkMask, 8<<chunkBits),
		"ctrl-7-8-9": New(edges...),
		// A last chunk whose two groups both decode from the padded copy
		// of the input's end, the second one short: its padding must not
		// carry bytes of the first.
		"end-groups": New(seq(3<<chunkBits|65515, 11, 2)...),
		"array":      New(seq(0, 200, 5)...),
		"bitmap":     New(dense...),
		"sparse":     New(sparse...),
		"random":     New(random...),
		"max-cell":   New(0, ^uint64(0)),
		"two-forms":  New(append(append([]uint64{}, dense...), sparse...)...),
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

// TestWireCompactByteEquality: for every set, every chunk form included,
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

// wireCorruptCases are hand-built hostile inputs. Each array-chunk case
// is total, chunk count, key 0 and n, then control and data bytes: a
// value past 65535, a control bit past n, truncated control or data
// bytes, and a two-byte delta below 256 are each refused, so that one
// set has exactly one encoding.
func wireCorruptCases() map[string][]byte {
	valid := New(seq(0, 200, 5)...).AppendWire(nil)
	return map[string][]byte{
		"empty input":  {},
		"unknown form": {9},
		// New(1, 2, 3) in the flat form earlier wire versions wrote.
		"retired form tag 1 is refused": {1, 3, 1, 0, 0},
		"chunks headless":               {wireChunks, 5},
		"chunks huge total": {
			wireChunks, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 1,
		},
		"chunk truncated":          valid[:len(valid)-3],
		"chunk card zero":          {wireChunks, 1, 1, 0, 0},
		"value past 65535":         {wireChunks, 2, 1, 0, 2, 0b11, 0x00, 0xff, 0x00, 0x01},
		"control bit past n":       {wireChunks, 1, 1, 0, 1, 0b10, 5, 0},
		"truncated control bytes":  {wireChunks, 9, 1, 0, 9, 0},
		"truncated data bytes":     {wireChunks, 2, 1, 0, 2, 0b01, 0x00, 0x01},
		"two-byte delta below 256": {wireChunks, 1, 1, 0, 1, 0b1, 5, 0},
	}
}

// TestWireDecodeRejectsCorrupt: hostile inputs must error — never panic,
// never mis-decode.
func TestWireDecodeRejectsCorrupt(t *testing.T) {
	for name, data := range wireCorruptCases() {
		if _, _, err := DecodeWireSet(data); err == nil {
			t.Errorf("%s: DecodeWireSet accepted corrupt input", name)
		}
		if _, _, err := DecodeWireCompact(data); err == nil {
			t.Errorf("%s: DecodeWireCompact accepted corrupt input", name)
		}
	}
}

// FuzzWireDecode drives both decoders over arbitrary input: they must
// return without panicking, and anything they accept must re-encode to
// an equivalent set.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireTestSets() {
		f.Add(s.AppendWire(nil))
	}
	for _, data := range wireCorruptCases() {
		f.Add(data)
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

// FuzzWireRoundTrip encodes random sorted sets: a run of dense cells from
// 0, then one cell per input byte, whose low six bits step within a chunk
// and whose top two bits, both set, jump chunks. The Set and Compact
// encodings must be byte-equal, and both decoders must return the set.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint16(0), []byte{1, 2, 3})
	f.Add(uint16(4096), []byte{0xff, 0x3f, 0xc0, 0})
	f.Add(uint16(4097), []byte{0xc1, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f})
	f.Fuzz(func(t *testing.T, dense uint16, data []byte) {
		s := make(Set, 0, int(dense)+len(data))
		for v := uint64(0); v < uint64(dense); v++ {
			s = append(s, v)
		}
		cell := uint64(dense)
		for _, b := range data {
			gap := uint64(b&0x3f) + 1
			if b&0xc0 == 0xc0 {
				gap <<= chunkBits + b&0x1f
			}
			if cell+gap < cell {
				break
			}
			cell += gap
			s = append(s, cell)
		}
		wire := s.AppendWire(nil)
		if viaCompact := FromSet(s).AppendWire(nil); !bytes.Equal(wire, viaCompact) {
			t.Fatalf("Set and Compact encodings differ: %d vs %d bytes", len(wire), len(viaCompact))
		}
		got, rest, err := DecodeWireSet(wire)
		if err != nil || len(rest) != 0 || !slices.Equal(got, s) {
			t.Fatalf("Set decoder: %d cells, %d bytes left, %v; want %d cells", len(got), len(rest), err, len(s))
		}
		c, rest, err := DecodeWireCompact(wire)
		if err != nil || len(rest) != 0 || !slices.Equal(c.Set(), s) {
			t.Fatalf("Compact decoder: %d cells, %d bytes left, %v; want %d cells", c.Len(), len(rest), err, len(s))
		}
	})
}

// clusteredSets are z-ordered cell sets shaped like the corpus's: runs
// of close cells between stretches of sparse ones, about 84 % of the
// gaps under 256, half the groups of eight all under 256, and a few
// jumps to far chunks.
func clusteredSets() []Set {
	rng := rand.New(rand.NewSource(3))
	sets := make([]Set, 64)
	for i := range sets {
		cell := rng.Uint64() >> 24
		s := make(Set, 0, 2000)
		mean, dense := 30.0, true
		for len(s) < cap(s) {
			if dense && rng.Intn(12) == 0 || !dense && rng.Intn(4) == 0 {
				dense = !dense
				mean = 630 - mean
			}
			if rng.Intn(500) == 0 {
				cell += rng.Uint64() >> 40
			}
			cell += uint64(rng.ExpFloat64()*mean) + 1
			s = append(s, cell)
		}
		sets[i] = s
	}
	return sets
}

// BenchmarkWireCodec encodes and decodes clustered sets through both
// forms and reports ns/cell and the encoding's bytes per cell.
func BenchmarkWireCodec(b *testing.B) {
	sets := clusteredSets()
	compacts := make([]*Compact, len(sets))
	wires := make([][]byte, len(sets))
	cells, size := 0, 0
	for i, s := range sets {
		compacts[i] = FromSet(s)
		wires[i] = s.AppendWire(nil)
		cells += len(s)
		size += len(wires[i])
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
		b.ReportMetric(float64(size)/float64(cells), "B/cell")
	}
	dst := make([]byte, 0, 2*size)
	b.Run("encode/Set", func(b *testing.B) {
		for range b.N {
			for _, s := range sets {
				dst = s.AppendWire(dst[:0])
			}
		}
		report(b)
	})
	b.Run("encode/Compact", func(b *testing.B) {
		for range b.N {
			for _, c := range compacts {
				dst = c.AppendWire(dst[:0])
			}
		}
		report(b)
	})
	b.Run("decode/Set", func(b *testing.B) {
		for range b.N {
			for _, w := range wires {
				if _, _, err := DecodeWireSet(w); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b)
	})
	b.Run("decode/Compact", func(b *testing.B) {
		for range b.N {
			for _, w := range wires {
				if _, _, err := DecodeWireCompact(w); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b)
	})
}

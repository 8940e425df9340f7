package cellset

import (
	"math/rand"
	"testing"
)

// randomStorageSet builds a set mixing dense runs (bitmap chunks) and
// sparse scatter (array chunks) across several chunk keys.
func randomStorageSet(rng *rand.Rand) Set {
	var cells []uint64
	for c := 0; c < 1+rng.Intn(4); c++ {
		base := uint64(rng.Intn(8)) << chunkBits
		if rng.Intn(2) == 0 {
			// Dense run: forces a bitmap container.
			start := rng.Intn(1 << 14)
			for i := 0; i < arrayMaxLen+1+rng.Intn(2000); i++ {
				cells = append(cells, base|uint64((start+i)&(1<<chunkBits-1)))
			}
		} else {
			for i := 0; i < 1+rng.Intn(200); i++ {
				cells = append(cells, base|uint64(rng.Intn(1<<chunkBits)))
			}
		}
	}
	return New(cells...)
}

func TestStorageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := []Set{nil, New(0), New(1, 2, 3), New(1 << 40)}
	for i := 0; i < 40; i++ {
		sets = append(sets, randomStorageSet(rng))
	}
	for i, s := range sets {
		c := FromSet(s)
		rec := AppendStorage(nil, c)
		if len(rec) != StorageSize(c) {
			t.Fatalf("set %d: StorageSize %d != emitted %d", i, StorageSize(c), len(rec))
		}
		if len(rec)%8 != 0 {
			t.Fatalf("set %d: record not 8-aligned (%d bytes)", i, len(rec))
		}
		for _, decode := range []func([]byte) (*Compact, int, error){ViewStorage, decodeStorageCopy} {
			got, n, err := decode(rec)
			if err != nil {
				t.Fatalf("set %d: decode: %v", i, err)
			}
			if n != len(rec) {
				t.Fatalf("set %d: decode consumed %d of %d bytes", i, n, len(rec))
			}
			if !got.Equal(c) {
				t.Fatalf("set %d: round-trip mismatch", i)
			}
		}
		// Back-to-back records in one buffer decode independently.
		double := AppendStorage(rec, c)
		if _, n, err := ViewStorage(double[len(rec):]); err != nil || n != len(rec) {
			t.Fatalf("set %d: second record: n=%d err=%v", i, n, err)
		}
	}
}

// TestStorageViewAliases pins the zero-copy contract: on a little-endian
// host an aligned record is aliased by ViewStorage (mutating the buffer
// changes the set) while decodeStorageCopy always copies.
func TestStorageViewAliases(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("aliasing only on little-endian hosts")
	}
	s := randomStorageSet(rand.New(rand.NewSource(7)))
	c := FromSet(s)
	rec := AppendStorage(nil, c)

	cp, _, err := decodeStorageCopy(rec)
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), rec...)
	for i := storageHeaderLen; i < len(rec); i++ {
		rec[i] = 0xAA
	}
	if !cp.Equal(c) {
		t.Fatal("copying decode result changed when the buffer was scribbled")
	}
	copy(rec, saved)

	view, _, err := ViewStorage(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !view.Equal(c) {
		t.Fatal("view decode mismatch")
	}
}

func TestStorageRejectsCorrupt(t *testing.T) {
	c := FromSet(New(1, 2, 3, 1<<20, 1<<21))
	good := AppendStorage(nil, c)
	for n := 0; n < len(good); n++ {
		if _, _, err := ViewStorage(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Declared-length/cardinality corruption must be caught, not trusted.
	for _, off := range []int{0, 4, 8, 12, storageHeaderLen} {
		b := append([]byte(nil), good...)
		b[off] ^= 0xFF
		if _, _, err := ViewStorage(b); err == nil {
			// A key byte flip can still be a valid (different) set; only
			// the header fields are unconditionally detectable.
			if off < storageHeaderLen {
				t.Fatalf("header flip at %d accepted", off)
			}
		}
	}
}

func FuzzStorageDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	f.Add(AppendStorage(nil, FromSet(nil)))
	f.Add(AppendStorage(nil, FromSet(New(1, 2, 3))))
	f.Add(AppendStorage(nil, FromSet(randomStorageSet(rng))))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range []func([]byte) (*Compact, int, error){ViewStorage, decodeStorageCopy} {
			c, n, err := decode(data)
			if err != nil {
				continue
			}
			if n < storageHeaderLen || n > len(data) {
				t.Fatalf("decoded length %d out of range", n)
			}
			// Whatever decoded must be a coherent set: re-encoding it
			// round-trips.
			rec := AppendStorage(nil, c)
			back, _, err := decodeStorageCopy(rec)
			if err != nil || !back.Equal(c) {
				t.Fatalf("re-encode round trip failed: %v", err)
			}
		}
	})
}

// decodeStorageCopy decodes a storage record with payloads always copied
// to the heap, as ViewStorage does for an unaligned buffer.
func decodeStorageCopy(data []byte) (*Compact, int, error) {
	return decodeStorage(data, false)
}

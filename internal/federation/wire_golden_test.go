package federation

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"dits/internal/cellset"
	"dits/internal/search/coverage"
)

// goldenCellSets are the cell-set shapes whose encodings are pinned: 64
// cells in one array chunk (eight full control bytes), 65 cells that
// straddle a chunk edge (the deltas restart in the second chunk), a set
// over several array chunks, and one with a bitmap chunk.
func goldenCellSets() []struct {
	name string
	set  cellset.Set
} {
	span := func(start uint64, n, step int) cellset.Set {
		s := make(cellset.Set, n)
		for i := range s {
			s[i] = start + uint64(i*step)
		}
		return s
	}
	var chunks, bitmap cellset.Set
	for c := uint64(0); c < 5; c++ { // 60 cells in each of 5 chunks
		chunks = append(chunks, span(c<<20|c<<16|100, 60, 7)...)
	}
	bitmap = append(span(3<<16, 5000, 1), span(9<<16|40, 10, 3)...)
	return []struct {
		name string
		set  cellset.Set
	}{
		{"0 cells", nil},
		{"1 cell", cellset.Set{1<<40 | 5}},
		{"64 cells", span(1<<16|10, 64, 3)},
		{"65 cells", span(1<<16|65500, 65, 1)}, // straddles a chunk edge
		{"5 chunks", chunks},
		{"bitmap chunk", bitmap},
	}
}

// setCellField stores s in the message field f, in whichever cell-set form
// the field has: the pinned bytes must not depend on the form.
func setCellField(f reflect.Value, s cellset.Set) {
	if f.Type() == reflect.TypeOf(s) {
		f.Set(reflect.ValueOf(s))
		return
	}
	if len(s) > 0 {
		f.Set(reflect.ValueOf(cellset.FromSet(s)))
	}
}

// TestCellSetMessagesGoldenBytes pins the encoded bytes of the messages
// that carry a CJSP's cells, for each golden set: a coverage.round with
// the set as Base and as Added (with a close list), a coverage.fetch
// answer with the set as Cells (and a guarded next offer), and a
// coverage.fetch request with the set as Added. The cell sets encode as
// they did in the flat-Set messages the first digests were taken from;
// the container-form messages must reproduce them byte for byte, so
// changing a field's form never changes what crosses the wire.
func TestCellSetMessagesGoldenBytes(t *testing.T) {
	want := map[string][4]string{
		"0 cells":      {"b289b20b089c64b2", "5ebacb9781b265a2", "249f5ddc85c839d1", "4a528aa68a07ac99"},
		"1 cell":       {"cc9cc68a2af73807", "fbde5126562fcbab", "7095445d60efe0ab", "23b75ec924581e77"},
		"64 cells":     {"f09d3682dc90c74f", "4f23f99f2fd09c94", "a2eaeaca0313b152", "53c6e806a1ff6969"},
		"65 cells":     {"9134d2e9d8f8ab48", "191616f9c6de96ca", "49efd98294691ed9", "63f500e10dd51c60"},
		"5 chunks":     {"98dbfa25042b79e8", "0854726ebd82f25c", "28f4ae06bd10d525", "d2fb50f169ab4a1d"},
		"bitmap chunk": {"15977e438604f272", "a85b9bd2245fa022", "421f6fd8698e65be", "7ad8c6640628fc4c"},
	}
	guard := []coverage.GuardSpan{{Span: cellset.Span{X0: 3, Y0: 4, X1: 300, Y1: 4000}, Ceil: 40}, {Span: cellset.Span{X0: 1 << 20, Y0: 0, X1: 1<<20 + 9, Y1: 127}, Ceil: 200}}
	for _, g := range goldenCellSets() {
		base := &CoverageRoundRequest{Session: 1 << 40, Delta: 2.5, Exclude: []int{3, 17}}
		setCellField(reflect.ValueOf(base).Elem().FieldByName("Base"), g.set)
		added := &CoverageRoundRequest{Session: 9, Delta: 10, Close: []uint64{8, 1 << 50}}
		setCellField(reflect.ValueOf(added).Elem().FieldByName("Added"), g.set)
		fetch := &FetchCellsResponse{Found: true, Committed: true, Next: Offer{Found: true, ID: 12, Name: "next", Gain: 40, Guard: guard}}
		setCellField(reflect.ValueOf(fetch).Elem().FieldByName("Cells"), g.set)
		held := &FetchCellsRequest{Session: 9, ID: 12, Exclude: []int{12}}
		setCellField(reflect.ValueOf(held).Elem().FieldByName("Added"), g.set)
		for i, m := range []any{base, added, fetch, held} {
			wire, err := BinaryCodec.Append(nil, m)
			if err != nil {
				t.Fatalf("%s: %T: %v", g.name, m, err)
			}
			sum := sha256.Sum256(wire)
			if got := hex.EncodeToString(sum[:8]); got != want[g.name][i] {
				t.Errorf("%s: %T #%d: %d bytes, digest %s, want %s", g.name, m, i, len(wire), got, want[g.name][i])
			}
		}
	}
}

// TestForwardGoldenBytes pins the encoded bytes of a 3-call forward
// (clippedForward), so the op stream's layout and its matcher cannot
// drift unnoticed: either changes what crosses the wire.
func TestForwardGoldenBytes(t *testing.T) {
	wire, err := BinaryCodec.Append(nil, clippedForward(t))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(wire)
	if got, want := hex.EncodeToString(sum[:8]), "37451d15c5943c26"; got != want {
		t.Errorf("%d bytes, digest %s, want %s", len(wire), got, want)
	}
}

// TestOfferGoldenBytes pins the encoded bytes of a coverage.round answer
// whose guard carries ceilings, the void answer's unbounded one included,
// so the offer's layout cannot drift unnoticed.
func TestOfferGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		offer Offer
		want  string
	}{
		{Offer{Found: true, ID: 12, Name: "next", Gain: 40, Guard: []coverage.GuardSpan{
			{Span: cellset.Span{X0: 3, Y0: 4, X1: 300, Y1: 4000}, Ceil: 40},
			{Span: cellset.Span{X0: 1 << 20, Y0: 0, X1: 1<<20 + 9, Y1: 127}, Ceil: 200},
		}}, "d009045c49fcd0d3"},
		{Offer{Guard: []coverage.GuardSpan{{Span: cellset.Span{X1: math.MaxUint32, Y1: math.MaxUint32}, Ceil: math.MaxInt}}}, "c6c819d9a69185ab"},
	} {
		wire, err := BinaryCodec.Append(nil, &CoverageRoundResponse{Offer: tc.offer})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(wire)
		if got := hex.EncodeToString(sum[:8]); got != tc.want {
			t.Errorf("%+v: %d bytes, digest %s, want %s", tc.offer, len(wire), got, tc.want)
		}
	}
}

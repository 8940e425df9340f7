package federation

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"dits/internal/cellset"
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
// the set as Base and as Added, and a coverage.fetch answer with the set
// as Cells. The digests were taken from the flat-Set messages; the
// container-form messages must reproduce them byte for byte, so changing
// a field's form never changes what crosses the wire.
func TestCellSetMessagesGoldenBytes(t *testing.T) {
	want := map[string][3]string{
		"0 cells":      {"812e446ec0368917", "233ff8e4a5c7ecd3", "7409bb6741c48397"},
		"1 cell":       {"4ea3d37d3dda462e", "a9ecf58a95ae637a", "314d9f1f9bdd8023"},
		"64 cells":     {"60999fceadb184cc", "dff2ffa33553d55b", "c9b961b632930e6a"},
		"65 cells":     {"a1fc7c53e5ac1fd8", "92ecbf3023bbc50e", "76f0312ec7bf8489"},
		"5 chunks":     {"c198814933d432bc", "969d65be60a3f1b3", "564cd15c035ea40f"},
		"bitmap chunk": {"7dccbb1580cb4512", "4e07afa6ce06e5fb", "06ad831f1136aed5"},
	}
	for _, g := range goldenCellSets() {
		base := &CoverageRoundRequest{Session: 1 << 40, Delta: 2.5, Exclude: []int{3, 17}}
		setCellField(reflect.ValueOf(base).Elem().FieldByName("Base"), g.set)
		added := &CoverageRoundRequest{Session: 9, Delta: 10, Final: true}
		setCellField(reflect.ValueOf(added).Elem().FieldByName("Added"), g.set)
		fetch := &FetchCellsResponse{Found: true, Committed: true, Next: Offer{Found: true, ID: 12, Name: "next", Gain: 40}}
		setCellField(reflect.ValueOf(fetch).Elem().FieldByName("Cells"), g.set)
		for i, m := range []any{base, added, fetch} {
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

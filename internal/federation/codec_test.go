package federation

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dits/internal/cellset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/transport"
)

// codecTestMessages is one populated instance of every federation wire
// message — the corpus for the gob/binary differential tests and the
// fuzz seeds. Fields cover the edge shapes: nil and huge cell sets,
// negative ints, empty and non-ASCII strings.
func codecTestMessages() []any {
	big := make([]uint64, 0, 6000)
	for i := 0; i < 6000; i++ { // one bitmap chunk plus array chunks
		big = append(big, uint64(i)*3)
	}
	bigSet := cellset.New(big...)
	small := cellset.New(7, 9, 1<<30)
	summary := dits.SourceSummary{
		Name:  "src-α",
		Rect:  geo.Rect{MinX: -1.5, MinY: 0, MaxX: 2.25, MaxY: 1e9},
		O:     geo.Point{X: 0.375, Y: -12},
		R:     99.5,
		Theta: 12,
	}
	return []any{
		&OverlapRequest{Cells: bigSet, K: 10},
		&OverlapRequest{Cells: nil, K: -1},
		&OverlapResponse{Results: []OverlapItem{
			{ID: 1, Name: "a", Overlap: 3},
			{ID: -7, Name: "", Overlap: 0},
			{ID: 1 << 40, Name: strings.Repeat("名", 100), Overlap: -2},
		}},
		&OverlapResponse{},
		&SearchBatchRequest{Queries: []OverlapRequest{
			{Cells: small, K: 1}, {Cells: nil, K: 0}, {Cells: bigSet, K: 100},
		}},
		&SearchBatchRequest{},
		&SearchBatchResponse{Results: []OverlapResponse{
			{Results: []OverlapItem{{ID: 2, Name: "x", Overlap: 9}}},
			{},
		}},
		&CoverageRequest{Merged: bigSet, Delta: 10.5, Exclude: []int{3, -4, 1 << 33}},
		&CoverageRequest{Merged: small, Delta: 0},
		&CoverageCandidate{Found: true, ID: 12, Name: "cand", Gain: 44, Cells: small},
		&CoverageCandidate{},
		&CoverageRoundRequest{Session: 1 << 60, Base: bigSet, Added: small, Delta: 2, Exclude: []int{1}},
		&CoverageRoundRequest{Session: 1, Added: small},
		&CoverageRoundResponse{SessionMiss: true, Stateless: true, Found: true, ID: 5, Name: "w", Gain: 17},
		&CoverageRoundResponse{},
		&FetchCellsRequest{Session: 42, ID: -9},
		&FetchCellsResponse{Found: true, Committed: true, Cells: bigSet},
		&FetchCellsResponse{},
		&SessionCloseRequest{Session: ^uint64(0)},
		&SessionCloseResponse{Closed: true},
		&StatsResponse{Name: "s", NumDatasets: 4, TreeNodes: 9, Height: 2, Sessions: 1, DataVersion: 77, Durable: true},
		&DatasetPutRequest{ID: 3, Name: "d", Cells: small},
		&DatasetDeleteRequest{ID: 1 << 50},
		&MutateResponse{Found: true, Version: 8, NumDatasets: 2, Summary: summary},
		&VersionRequest{},
		&VersionResponse{Name: "v", Version: 3, Durable: true},
		&summary,
		&ClusterForwardRequest{Calls: []ForwardCall{
			{Source: "src-α", Method: MethodCoverageRound, Body: []byte{tagBin, msgCoverageRoundReq, 0}},
			{Source: "b", Method: MethodSessionClose},
		}},
		&ClusterForwardRequest{},
		&ClusterForwardResponse{Replies: []ForwardReply{{Body: []byte{1, 2, 3}}, {Err: "boom", Transport: true}, {}}},
	}
}

// fresh returns a new zero value of the same pointed-to type as m.
func fresh(m any) any {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface()
}

// TestCodecDifferential: every message must round-trip identically
// through the gob codec and through the binary codec — the binary wire
// form may differ, but the decoded value must not.
func TestCodecDifferential(t *testing.T) {
	for _, m := range codecTestMessages() {
		name := fmt.Sprintf("%T", m)
		for _, codec := range []transport.Codec{transport.GobCodec, BinaryCodec} {
			wire, err := codec.Append(nil, m)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", name, codec.Name(), err)
			}
			got := fresh(m)
			if err := codec.Decode(wire, got); err != nil {
				t.Fatalf("%s/%s: decode: %v", name, codec.Name(), err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Errorf("%s/%s: round trip diverged:\n got %+v\nwant %+v", name, codec.Name(), got, m)
			}
		}
	}
}

// TestCodecBinarySmaller: the binary form of cell-set-bearing messages
// must undercut gob — the whole point of the codec.
func TestCodecBinarySmaller(t *testing.T) {
	for _, m := range codecTestMessages() {
		gob, err := transport.GobCodec.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := BinaryCodec.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		// Gob amortizes type descriptors across a stream; per-frame it
		// re-ships them, so binary should never lose by more than noise.
		if len(bin) > len(gob) {
			t.Errorf("%T: binary %dB > gob %dB", m, len(bin), len(gob))
		}
	}
}

// TestCodecGobPassthrough: a type without a native binary encoding rides
// a binary connection as a tagged gob stream.
func TestCodecGobPassthrough(t *testing.T) {
	type exotic struct{ A, B string }
	wire, err := BinaryCodec.Append(nil, &exotic{A: "x", B: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if wire[0] != tagGob {
		t.Fatalf("exotic type not gob-tagged: %q", wire[0])
	}
	var got exotic
	if err := BinaryCodec.Decode(wire, &got); err != nil {
		t.Fatal(err)
	}
	if got.A != "x" || got.B != "y" {
		t.Fatalf("gob passthrough corrupted: %+v", got)
	}
}

// TestCodecRejectsCorrupt: wrong tags, wrong message types, trailing
// garbage, and truncation all error.
func TestCodecRejectsCorrupt(t *testing.T) {
	var resp OverlapResponse
	if err := BinaryCodec.Decode(nil, &resp); err == nil {
		t.Error("empty payload accepted")
	}
	if err := BinaryCodec.Decode([]byte{'Z', 1}, &resp); err == nil {
		t.Error("unknown content tag accepted")
	}
	if err := BinaryCodec.Decode([]byte{tagBin}, &resp); err == nil {
		t.Error("missing message type accepted")
	}
	if err := BinaryCodec.Decode([]byte{tagBin, msgOverlapReq}, &resp); err == nil {
		t.Error("wrong message type accepted")
	}
	wire, err := BinaryCodec.Append(nil, &OverlapRequest{Cells: cellset.New(1, 2), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	var req OverlapRequest
	if err := BinaryCodec.Decode(append(wire, 0), &req); err == nil {
		t.Error("trailing bytes accepted")
	}
	for cut := 1; cut < len(wire); cut++ {
		var req OverlapRequest
		if err := BinaryCodec.Decode(wire[:cut], &req); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestCodecAppendZeroAlloc: with a warm destination buffer the encode
// path must not allocate — it runs inside the transport's pooled-buffer
// hot loop for every RPC.
func TestCodecAppendZeroAlloc(t *testing.T) {
	for _, m := range codecTestMessages() {
		m := m
		wire, err := BinaryCodec.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, len(wire)+64)
		if allocs := testing.AllocsPerRun(100, func() {
			dst, _ = BinaryCodec.Append(dst[:0], m)
		}); allocs != 0 {
			t.Errorf("%T: encode allocated %.1f times", m, allocs)
		}
	}
}

// FuzzCodec hammers the binary decoder with arbitrary frames against
// every message type: it must return an error or a value, never panic,
// and anything accepted must re-encode and re-decode stably.
func FuzzCodec(f *testing.F) {
	msgs := codecTestMessages()
	for _, m := range msgs {
		wire, err := BinaryCodec.Append(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{tagBin, msgOverlapReq, 0, 2})
	f.Add([]byte{tagGob, 0xff, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range msgs {
			v := fresh(m)
			if err := BinaryCodec.Decode(data, v); err != nil {
				continue
			}
			wire, err := BinaryCodec.Append(nil, v)
			if err != nil {
				t.Fatalf("%T: accepted frame does not re-encode: %v", v, err)
			}
			again := fresh(m)
			if err := BinaryCodec.Decode(wire, again); err != nil {
				t.Fatalf("%T: re-encoded frame does not decode: %v", v, err)
			}
			if !reflect.DeepEqual(again, v) {
				t.Fatalf("%T: re-decode diverged", v)
			}
		}
	})
}

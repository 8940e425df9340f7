package federation

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dits/internal/cellset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
)

// codecTestMessages is at least one populated instance of every
// federation wire message — the corpus for the gob/binary differential
// tests and the fuzz seeds. Fields cover the edge shapes: nil and huge
// cell sets, negative ints, empty and non-ASCII strings.
func codecTestMessages() []any {
	big := make([]uint64, 0, 6000)
	for i := 0; i < 6000; i++ { // one bitmap chunk plus array chunks
		big = append(big, uint64(i)*3)
	}
	bigSet := cellset.New(big...)
	small := cellset.New(7, 9, 1<<30)
	summary := dits.SourceSummary{
		Name: "src-α",
		Rect: geo.Rect{MinX: -1.5, MinY: 0, MaxX: 2.25, MaxY: 1e9},
		O:    geo.Point{X: 0.375, Y: -12},
		R:    99.5,
		Grid: geo.NewGrid(12, geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}),
	}
	msgs := []any{
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
		&CoverageRoundRequest{Session: 1 << 60, Base: cellset.FromSet(bigSet), Added: cellset.FromSet(small), Delta: 2, Exclude: []int{1}},
		&CoverageRoundRequest{Session: 1, Added: cellset.FromSet(small)},
		&CoverageRoundRequest{Session: 3, Base: cellset.FromSet(small), Delta: 4, Exclude: []int{-2, 8}, Close: []uint64{^uint64(0), 0, 7}},
		&CoverageRoundRequest{Session: 4, Added: cellset.FromSet(bigSet), Close: []uint64{1 << 63}},
		&CoverageRoundResponse{SessionMiss: true, Stateless: true, Offer: Offer{Found: true, ID: 5, Name: "w", Gain: 17}},
		&CoverageRoundResponse{Offer: Offer{Found: true, ID: 8, Name: "g", Gain: 3, Guard: []coverage.GuardSpan{{Span: cellset.Span{X0: 1, Y0: 2, X1: 3, Y1: 4}, Ceil: 3}}}},
		&CoverageRoundResponse{Offer: Offer{Guard: []coverage.GuardSpan{{Ceil: 1}, {Span: cellset.Span{X1: math.MaxUint32, Y1: math.MaxUint32}, Ceil: math.MaxInt}}}},
		&CoverageRoundResponse{Offer: Offer{Found: true, ID: 2, Gain: -4, Guard: []coverage.GuardSpan{{Ceil: math.MaxInt - 4}}}},
		&CoverageRoundResponse{},
		&FetchCellsRequest{Session: 42, ID: -9, Exclude: []int{-9, 1 << 33, 0}},
		&FetchCellsRequest{Session: 43, ID: 2, Exclude: []int{2}, Added: cellset.FromSet(bigSet)},
		&FetchCellsRequest{ID: 6},
		&FetchCellsResponse{Found: true, Committed: true, Cells: cellset.FromSet(bigSet), Next: Offer{Found: true, ID: -3, Name: "下一个", Gain: 1 << 40}},
		&FetchCellsResponse{Found: true, Committed: true, Cells: cellset.FromSet(small), Next: Offer{Found: true, ID: 4, Gain: 9, Guard: []coverage.GuardSpan{
			{Span: cellset.Span{X0: 10, Y0: 10, X1: 20, Y1: 20}, Ceil: 9}, {Span: cellset.Span{X0: 4000, Y0: 0, X1: 4095, Y1: 4095}, Ceil: 300},
			{Span: cellset.Span{X0: 7, Y0: 7, X1: 7, Y1: 7}, Ceil: 10}, {Span: cellset.Span{X0: 1 << 31, Y0: 5, X1: math.MaxUint32, Y1: 1 << 20}, Ceil: 1 << 40},
		}}},
		&FetchCellsResponse{Found: true, Cells: cellset.FromSet(small)},
		&FetchCellsResponse{},
		&DatasetPutRequest{ID: 3, Name: "d", Cells: small},
		&DatasetDeleteRequest{ID: 1 << 50},
		&MutateResponse{Found: true, Version: 8, NumDatasets: 2, Summary: summary},
		&VersionRequest{},
		&VersionResponse{Name: "v", Version: 3, Durable: true},
		&summary,
		&ClusterForwardRequest{Calls: []ForwardCall{
			{Source: "src-α", Method: MethodCoverageRound, Body: []byte{msgCoverageRoundCloseReq, 0}},
			{Source: "b", Method: MethodFetchCells},
		}},
		&ClusterForwardRequest{},
		&ClusterForwardRequest{Calls: []ForwardCall{
			{Source: "a", Method: MethodOverlap, Body: []byte{msgOverlapReq, 1, 2, 3}},
			{Source: "b", Method: MethodFetchCells},
			{Source: "c", Method: MethodOverlap, Body: []byte{msgOverlapReq, 1, 2, 3}},
		}},
		&ClusterForwardResponse{Replies: []ForwardReply{{Body: []byte{1, 2, 3}}, {Err: "boom", Transport: true}, {}}},
		&ClusterInfoResponse{Name: "c1", Generation: 9, Shard: []ShardSource{{Summary: summary, Version: 4}, {}}},
		&ClusterInfoResponse{},
		&ClusterRegisterRequest{Name: "src-α", Addr: "127.0.0.1:7201", Replicas: []string{"127.0.0.1:7211", ""}, Grid: summary.Grid},
		&ClusterRegisterRequest{Name: "s", Addr: "a"},
		&WALShipRequest{After: 1 << 40},
		&WALShipResponse{Frames: []byte{0, 1, 2, 255}, Version: 12, TooOld: true},
		&WALShipResponse{},
	}
	// cluster.forward frames as a query's or a mutation's relay ships
	// them: one call each way per relayed OJSP, batch and mutation method.
	for _, rr := range []struct {
		method    string
		req, resp any
	}{
		{MethodOverlap, &OverlapRequest{Cells: small, K: 3}, &OverlapResponse{Results: []OverlapItem{{ID: 4, Name: "o", Overlap: 2}}}},
		{MethodSearchBatch, &SearchBatchRequest{Queries: []OverlapRequest{{Cells: small, K: 1}, {}}}, &SearchBatchResponse{Results: []OverlapResponse{{}, {}}}},
		{MethodDatasetPut, &DatasetPutRequest{ID: 5, Name: "p", Cells: bigSet}, &MutateResponse{Found: true, Version: 2, NumDatasets: 9, Summary: summary}},
		{MethodDatasetDelete, &DatasetDeleteRequest{ID: 5}, &MutateResponse{Version: 3, Summary: summary}},
	} {
		req, _ := BinaryCodec.Append(nil, rr.req)
		resp, _ := BinaryCodec.Append(nil, rr.resp)
		msgs = append(msgs,
			&ClusterForwardRequest{Calls: []ForwardCall{{Source: "src-α", Method: rr.method, Body: req}}},
			&ClusterForwardResponse{Replies: []ForwardReply{{Body: resp}}})
	}
	return msgs
}

// wireTypes maps every federation method to its request and response
// types (nil: the payload is empty). Each must have a native binary case.
var wireTypes = map[string][2]any{
	MethodOverlap:         {new(OverlapRequest), new(OverlapResponse)},
	MethodCoverage:        {new(CoverageRequest), new(CoverageCandidate)},
	MethodSummary:         {nil, new(dits.SourceSummary)},
	MethodCoverageRound:   {new(CoverageRoundRequest), new(CoverageRoundResponse)},
	MethodFetchCells:      {new(FetchCellsRequest), new(FetchCellsResponse)},
	MethodSearchBatch:     {new(SearchBatchRequest), new(SearchBatchResponse)},
	MethodDatasetPut:      {new(DatasetPutRequest), new(MutateResponse)},
	MethodDatasetDelete:   {new(DatasetDeleteRequest), new(MutateResponse)},
	MethodSourceVersion:   {new(VersionRequest), new(VersionResponse)},
	MethodWALShip:         {new(WALShipRequest), new(WALShipResponse)},
	MethodClusterInfo:     {nil, new(ClusterInfoResponse)},
	MethodClusterRegister: {new(ClusterRegisterRequest), new(dits.SourceSummary)},
	MethodClusterForward:  {new(ClusterForwardRequest), new(ClusterForwardResponse)},
}

// gobRoundTrip is the differential oracle: m through encoding/gob.
func gobRoundTrip(t testing.TB, m any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatalf("%T: gob encode: %v", m, err)
	}
	got := fresh(m)
	if err := gob.NewDecoder(&buf).Decode(got); err != nil {
		t.Fatalf("%T: gob decode: %v", m, err)
	}
	return got
}

// methodValues parses this package's sources for every Method* string
// constant, so a method added without a wireTypes row fails the test.
func methodValues(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	nonTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, ".", nonTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				vs, ok := n.(*ast.ValueSpec)
				if !ok {
					return true
				}
				for i, id := range vs.Names {
					if !strings.HasPrefix(id.Name, "Method") || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, _ := strconv.Unquote(lit.Value)
						out = append(out, v)
					}
				}
				return true
			})
		}
	}
	return out
}

// TestCodecEveryWireTypeNative: every method's request and response type
// round-trips through BinaryCodec to exactly what gob — the oracle, and
// nothing more — makes of it, on every corpus instance of the type; and
// a type with no native case cannot be encoded at all.
func TestCodecEveryWireTypeNative(t *testing.T) {
	methods := methodValues(t)
	if len(methods) != len(wireTypes) {
		t.Errorf("%d Method* constants, %d wireTypes rows", len(methods), len(wireTypes))
	}
	byType := map[reflect.Type][]any{}
	for _, m := range codecTestMessages() {
		byType[reflect.TypeOf(m)] = append(byType[reflect.TypeOf(m)], m)
	}
	for _, method := range methods {
		types, ok := wireTypes[method]
		if !ok {
			t.Errorf("method %q has no wireTypes row", method)
			continue
		}
		for _, typ := range types {
			if typ == nil {
				continue
			}
			corpus := byType[reflect.TypeOf(typ)]
			if len(corpus) == 0 {
				t.Errorf("%s: %T has no codecTestMessages instance", method, typ)
			}
			for _, m := range corpus {
				wire, err := BinaryCodec.Append(nil, m)
				if err != nil {
					t.Fatalf("%s: %T: %v", method, m, err)
				}
				got := fresh(m)
				if err := BinaryCodec.Decode(wire, got); err != nil {
					t.Fatalf("%s: %T: decode: %v", method, m, err)
				}
				if want := gobRoundTrip(t, m); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %T diverged from gob:\n got %+v\nwant %+v", method, m, got, want)
				}
			}
		}
	}
	type unlisted struct{ A, B string }
	if _, err := BinaryCodec.Append(nil, &unlisted{A: "x"}); err == nil {
		t.Error("a type with no native case encoded")
	}
}

// fresh returns a new zero value of the same pointed-to type as m.
func fresh(m any) any {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface()
}

// TestCodecDifferential: every message must round-trip identically
// through gob and through the binary codec — the binary wire form may
// differ, but the decoded value must not.
func TestCodecDifferential(t *testing.T) {
	for _, m := range codecTestMessages() {
		name := fmt.Sprintf("%T", m)
		if got := gobRoundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Errorf("%s/gob: round trip diverged:\n got %+v\nwant %+v", name, got, m)
		}
		wire, err := BinaryCodec.Append(nil, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got := fresh(m)
		if err := BinaryCodec.Decode(wire, got); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip diverged:\n got %+v\nwant %+v", name, got, m)
		}
	}
}

// TestCodecBinarySmaller: the binary form of cell-set-bearing messages
// must undercut gob — the whole point of the codec.
func TestCodecBinarySmaller(t *testing.T) {
	for _, m := range codecTestMessages() {
		var gobBuf bytes.Buffer
		if err := gob.NewEncoder(&gobBuf).Encode(m); err != nil {
			t.Fatal(err)
		}
		bin, err := BinaryCodec.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		// Gob amortizes type descriptors across a stream; per-frame it
		// re-ships them, so binary should never lose by more than noise.
		if len(bin) > gobBuf.Len() {
			t.Errorf("%T: binary %dB > gob %dB", m, len(bin), gobBuf.Len())
		}
	}
}

// TestCodecRejectsCorrupt: wrong message types, trailing garbage, and
// truncation all error.
func TestCodecRejectsCorrupt(t *testing.T) {
	var resp OverlapResponse
	if err := BinaryCodec.Decode(nil, &resp); err == nil {
		t.Error("empty payload accepted")
	}
	if err := BinaryCodec.Decode([]byte{'Z', 1}, &resp); err == nil {
		t.Error("unknown message type accepted")
	}
	if err := BinaryCodec.Decode([]byte{msgOverlapReq}, &resp); err == nil {
		t.Error("wrong message type accepted")
	}
	// The session frames of the builds before Final, Exclude and Next, and
	// before guards, close lists and fetched deltas: a peer still sending
	// them is refused, not misread.
	for _, old := range []struct {
		frame []byte
		v     any
	}{
		{[]byte{7, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, new(CoverageRoundRequest)},
		{[]byte{9, 5, 2}, new(FetchCellsRequest)},
		{[]byte{10, 1, 0, 0}, new(FetchCellsResponse)},
		{[]byte{20, 1, 1, 'a', 1, 'm', 1, 9}, new(ClusterForwardRequest)},
		{[]byte{35, 1, 1, 'a', 1, 'm', 1, 2, 9}, new(ClusterForwardRequest)},
		{[]byte{23, 1, 's', 1, 'a', 0}, new(ClusterRegisterRequest)},
		// coverage.round with Final, its answer and coverage.fetch's pair
		// without guards or Added.
		{[]byte{32, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, new(CoverageRoundRequest)},
		{[]byte{8, 0, 0, 1, 10, 1, 'w', 34}, new(CoverageRoundResponse)},
		{[]byte{33, 5, 2, 1, 2}, new(FetchCellsRequest)},
		{[]byte{34, 1, 1, 0, 1, 6, 0, 8}, new(FetchCellsResponse)},
		// coverage.close's request and response.
		{[]byte{11, 5}, new(CoverageRoundRequest)},
		{[]byte{12, 1}, new(CoverageRoundResponse)},
		// coverage.round's and coverage.fetch's answers with guards but
		// without ceilings.
		{[]byte{39, 0, 0, 1, 16, 1, 'g', 6, 1, 1, 2, 3, 4}, new(CoverageRoundResponse)},
		{[]byte{41, 1, 1, 0, 1, 6, 0, 8, 0}, new(FetchCellsResponse)},
	} {
		if err := BinaryCodec.Decode(old.frame, old.v); err == nil {
			t.Errorf("%T: retired message type %d accepted", old.v, old.frame[0])
		}
	}
	// A relayed call under coverage.close's retired method code.
	closeCall := append([]byte{msgClusterForwardOpsReq, 1, 1, 'a', 4, 1}, opLit("x")...)
	if err := BinaryCodec.Decode(closeCall, new(ClusterForwardRequest)); err == nil || !strings.Contains(err.Error(), "method code 4") {
		t.Errorf("a relayed call under the retired coverage.close code: err = %v", err)
	}
	// A guard beyond GuardSpans spans.
	wide := []byte{msgCoverageRoundCeilResp, 0, 0, 1, 2, 0, 6, 5}
	for range 5 {
		wide = append(wide, 1, 2, 3, 4, 0)
	}
	if err := BinaryCodec.Decode(wide, new(CoverageRoundResponse)); err == nil {
		t.Error("a five-span guard accepted")
	}
	// A ceiling beyond the int range, over gain 3.
	high := binary.AppendUvarint([]byte{msgCoverageRoundCeilResp, 0, 0, 1, 2, 0, 6, 1, 1, 2, 3, 4}, math.MaxInt-2)
	if err := BinaryCodec.Decode(high, new(CoverageRoundResponse)); err == nil {
		t.Error("a ceiling beyond the int range accepted")
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

// TestCodecLargeWALShip: a wal.ship batch over maxWireSlice bytes is
// legal (ingest caps a batch softly, a single record at 64 MiB) and must
// decode; a byte string claiming more than the input must not.
func TestCodecLargeWALShip(t *testing.T) {
	frames := make([]byte, maxWireSlice+1<<20)
	for i := range frames {
		frames[i] = byte(i * 7)
	}
	m := &WALShipResponse{Frames: frames, Version: 99}
	wire, err := BinaryCodec.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	var got WALShipResponse
	if err := BinaryCodec.Decode(wire, &got); err != nil {
		t.Fatalf("%d-byte frames: %v", len(frames), err)
	}
	if !bytes.Equal(got.Frames, frames) || got.Version != 99 || got.TooOld {
		t.Fatalf("round trip diverged: %d frames bytes, version %d", len(got.Frames), got.Version)
	}
	if err := BinaryCodec.Decode(wire[:len(wire)/2], &got); err == nil {
		t.Error("truncated frames accepted")
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
	f.Add([]byte{msgOverlapReq, 0, 2})
	f.Add([]byte{msgWALShipResp, 0xff, 0x81})
	valid, err := BinaryCodec.Append(nil, twinOverlap(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, c := range corruptForwards() {
		f.Add(c.frame)
	}
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

// overlapBody is a 2,000-cell OverlapRequest over a 200×200-cell
// region, encoded by BinaryCodec: the shape of a clipped query body.
func overlapBody(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	cells := make([]uint64, 0, 2000)
	for len(cells) < 2000 {
		cells = append(cells, uint64(rng.Intn(200)*1000+rng.Intn(200)))
	}
	body, err := BinaryCodec.Append(nil, &OverlapRequest{Cells: cellset.New(cells...), K: 10})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// twinOverlap is a forward request of two calls whose bodies are the
// same overlapBody, as two co-located sources get them.
func twinOverlap(t testing.TB) *ClusterForwardRequest {
	body := overlapBody(t)
	return &ClusterForwardRequest{Calls: []ForwardCall{
		{Source: "a", Method: MethodOverlap, Body: body},
		{Source: "b", Method: MethodOverlap, Body: body},
	}}
}

// clippedForward is a forward request of three overlap.search calls
// carrying overlapBody's query clipped three ways — the west 150 columns,
// the east 150 and the middle 100 rows — as three co-located sources get
// it.
func clippedForward(t testing.TB) *ClusterForwardRequest {
	t.Helper()
	var q OverlapRequest
	if err := BinaryCodec.Decode(overlapBody(t), &q); err != nil {
		t.Fatal(err)
	}
	clip := func(source string, keep func(row, col uint64) bool) ForwardCall {
		var cells []uint64
		for _, c := range q.Cells {
			if keep(c/1000, c%1000) {
				cells = append(cells, c)
			}
		}
		body, err := BinaryCodec.Append(nil, &OverlapRequest{Cells: cellset.New(cells...), K: q.K})
		if err != nil {
			t.Fatal(err)
		}
		return ForwardCall{Source: source, Method: MethodOverlap, Body: body}
	}
	return &ClusterForwardRequest{Calls: []ForwardCall{
		clip("a", func(_, col uint64) bool { return col < 150 }),
		clip("b", func(_, col uint64) bool { return col >= 50 }),
		clip("c", func(row, _ uint64) bool { return row >= 50 && row < 150 }),
	}}
}

// BenchmarkForwardCodec encodes and decodes clippedForward: the relay's
// per-request codec cost.
func BenchmarkForwardCodec(b *testing.B) {
	req := clippedForward(b)
	raw := 0
	for _, c := range req.Calls {
		raw += len(c.Body)
	}
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		buf, _ = BinaryCodec.Append(buf[:0], req)
		var got ClusterForwardRequest
		if err := BinaryCodec.Decode(buf, &got); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(raw), "body_B")
	b.ReportMetric(float64(len(buf)), "wire_B")
}

// forwardFrame hand-builds a forward request frame: one overlap.search
// call declaring declared body bytes, then stream as the frame's tail.
func forwardFrame(declared uint64, stream []byte) []byte {
	frame := []byte{msgClusterForwardOpsReq, 1, 1, 'a', 0}
	frame = binary.AppendUvarint(frame, declared)
	return append(frame, stream...)
}

// opLit and opCopy hand-build a literal op and a copy op.
func opLit(b string) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(b))<<1), b...)
}

func opCopy(n, dist uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, n<<1|1), dist)
}

// doubling is the stream of one literal byte and copies doubling the
// output up to 2^k bytes.
func doubling(k int) []byte {
	stream := opLit("x")
	for n := uint64(1); n < 1<<k; n *= 2 {
		stream = append(stream, opCopy(n, n)...)
	}
	return stream
}

// corruptForwards are forward request frames the decoder must refuse.
func corruptForwards() []struct {
	name, want string // want is in the error
	declared   uint64
	frame      []byte
} {
	lit := opLit("abcdefgh")
	ops := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	bomb := doubling(16)
	for len(bomb)+6 <= 1<<10 {
		bomb = append(bomb, opCopy(maxCopy, maxCopy)...)
	}
	return []struct {
		name, want string
		declared   uint64
		frame      []byte
	}{
		{"truncated op", "truncated op", 12, forwardFrame(12, ops(lit, []byte{4<<1 | 1}))},
		{"truncated literal", "truncated literal", 12, forwardFrame(12, opLit("abcdefghijkl")[:5])},
		{"empty op", "empty op", 8, forwardFrame(8, []byte{0})},
		{"copy distance 0", "copy distance 0 ", 12, forwardFrame(12, ops(lit, opCopy(4, 0)))},
		{"copy distance beyond the output", "copy distance 9 at output 8", 12, forwardFrame(12, ops(lit, opCopy(4, 9)))},
		{"copy longer than its distance", "longer than its distance", 16, forwardFrame(16, ops(lit, opCopy(8, 4)))},
		{"copy beyond 64 KiB", "beyond 65536", 4 << 16, forwardFrame(4<<16, ops(doubling(17), opCopy(maxCopy+1, maxCopy+1)))},
		{"stream longer than declared", "longer than the declared", 10, forwardFrame(10, ops(lit, opCopy(4, 8)))},
		{"stream shorter than declared", "short of the declared", 16, forwardFrame(16, ops(lit, opCopy(4, 8)))},
		{"trailing bytes", "after the stream", 12, forwardFrame(12, ops(lit, opCopy(4, 8), []byte{0}))},
		{"method code out of range", "method code 7", 8, append([]byte{msgClusterForwardOpsReq, 1, 1, 'a', byte(len(relayMethods)), 8}, lit...)},
		{"bomb: 1 GiB from 1 KiB", "cannot expand", 1 << 30, forwardFrame(1<<30, bomb)},
	}
}

// TestCodecForwardRoundTrip: forwards of 0, 1 and 3 calls round-trip,
// empty and nil bodies alike decoding empty, identical bodies intact;
// each body is capped at its own length, so appending to one cannot
// overwrite the next in the shared buffer.
func TestCodecForwardRoundTrip(t *testing.T) {
	body := overlapBody(t)
	for _, calls := range [][]ForwardCall{
		nil,
		{{Source: "a", Method: MethodOverlap, Body: body}},
		{{Source: "a", Method: MethodOverlap, Body: []byte{}}},
		{
			{Source: "a", Method: MethodOverlap, Body: body},
			{Source: "b", Method: MethodFetchCells},
			{Source: "c", Method: MethodOverlap, Body: body},
		},
		{{Source: "a", Method: MethodFetchCells}, {Source: "b", Method: MethodFetchCells, Body: []byte{}}},
	} {
		wire, err := BinaryCodec.Append(nil, &ClusterForwardRequest{Calls: calls})
		if err != nil {
			t.Fatal(err)
		}
		var got ClusterForwardRequest
		if err := BinaryCodec.Decode(wire, &got); err != nil {
			t.Fatalf("%d calls: %v", len(calls), err)
		}
		if len(got.Calls) != len(calls) {
			t.Fatalf("%d calls decoded as %d", len(calls), len(got.Calls))
		}
		for i, c := range got.Calls {
			want := calls[i]
			if c.Source != want.Source || c.Method != want.Method || !bytes.Equal(c.Body, want.Body) {
				t.Errorf("call %d of %d diverged: %s %s %d bytes", i, len(calls), c.Source, c.Method, len(c.Body))
			}
			if cap(c.Body) != len(c.Body) {
				t.Errorf("call %d: body cap %d beyond its length %d", i, cap(c.Body), len(c.Body))
			}
		}
	}
}

// TestCodecForwardRejectsCorrupt: a forward whose op stream is truncated,
// holds an empty op, a copy from distance 0 or beyond the output, a copy
// longer than its distance or than 64 KiB, expands to more or fewer bytes
// than declared, or is followed by trailing bytes errors, as does an
// unknown method code; a bomb declaring 1 GiB from a 1 KiB stream errors
// before allocating it. Each frame has one defect, which its error names.
func TestCodecForwardRejectsCorrupt(t *testing.T) {
	valid := forwardFrame(12, append(opLit("abcdefgh"), opCopy(4, 8)...))
	var ok ClusterForwardRequest
	if err := BinaryCodec.Decode(valid, &ok); err != nil || string(ok.Calls[0].Body) != "abcdefghabcd" {
		t.Fatalf("the uncorrupted frame: %v, body %q", err, ok.Calls)
	}
	for _, c := range corruptForwards() {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var got ClusterForwardRequest
		err := BinaryCodec.Decode(c.frame, &got)
		runtime.ReadMemStats(&ms1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
		if alloc := ms1.TotalAlloc - ms0.TotalAlloc; c.declared >= 1<<20 && alloc >= c.declared/2 {
			t.Errorf("%s: allocated %d bytes for a %d-byte claim", c.name, alloc, c.declared)
		}
	}
}

// TestCodecForwardSize: two calls carrying the same 2,000-cell
// OverlapRequest cost at most 60 % of the two bodies, and the stream
// adds at most 16 bytes to one incompressible 4 KiB body.
func TestCodecForwardSize(t *testing.T) {
	twin := twinOverlap(t)
	wire, err := BinaryCodec.Append(nil, twin)
	if err != nil {
		t.Fatal(err)
	}
	body := twin.Calls[0].Body
	if limit := 2 * len(body) * 6 / 10; len(wire) > limit {
		t.Errorf("two %d-byte bodies encode to %d bytes, want <= %d", len(body), len(wire), limit)
	}

	noise := make([]byte, 4<<10)
	rand.New(rand.NewSource(5)).Read(noise)
	one := &ClusterForwardRequest{Calls: []ForwardCall{{Source: "a", Method: MethodOverlap, Body: noise}}}
	wire, err = BinaryCodec.Append(nil, one)
	if err != nil {
		t.Fatal(err)
	}
	one.Calls[0].Body = nil
	bare, err := BinaryCodec.Append(nil, one)
	if err != nil {
		t.Fatal(err)
	}
	if extra := len(wire) - len(bare); extra > len(noise)+16 {
		t.Errorf("a %d-byte incompressible body adds %d bytes, want <= %d", len(noise), extra, len(noise)+16)
	}
}

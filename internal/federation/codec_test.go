package federation

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dits/internal/cellset"
	"dits/internal/geo"
	"dits/internal/index/dits"
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
		&CoverageRoundRequest{Session: 1 << 60, Base: bigSet, Added: small, Delta: 2, Exclude: []int{1}},
		&CoverageRoundRequest{Session: 1, Added: small},
		&CoverageRoundRequest{Session: 3, Base: small, Delta: 4, Exclude: []int{-2, 8}, Final: true},
		&CoverageRoundResponse{SessionMiss: true, Stateless: true, Offer: Offer{Found: true, ID: 5, Name: "w", Gain: 17}},
		&CoverageRoundResponse{},
		&FetchCellsRequest{Session: 42, ID: -9, Exclude: []int{-9, 1 << 33, 0}},
		&FetchCellsRequest{ID: 6},
		&FetchCellsResponse{Found: true, Committed: true, Cells: bigSet, Next: Offer{Found: true, ID: -3, Name: "下一个", Gain: 1 << 40}},
		&FetchCellsResponse{Found: true, Cells: small},
		&FetchCellsResponse{},
		&SessionCloseRequest{Session: ^uint64(0)},
		&SessionCloseResponse{Closed: true},
		&DatasetPutRequest{ID: 3, Name: "d", Cells: small},
		&DatasetDeleteRequest{ID: 1 << 50},
		&MutateResponse{Found: true, Version: 8, NumDatasets: 2, Summary: summary},
		&VersionRequest{},
		&VersionResponse{Name: "v", Version: 3, Durable: true},
		&summary,
		&ClusterForwardRequest{Calls: []ForwardCall{
			{Source: "src-α", Method: MethodCoverageRound, Body: []byte{msgCoverageRoundFinalReq, 0}},
			{Source: "b", Method: MethodSessionClose},
		}},
		&ClusterForwardRequest{},
		&ClusterForwardRequest{Calls: []ForwardCall{
			{Source: "a", Method: MethodOverlap, Body: []byte{msgOverlapReq, 1, 2, 3}},
			{Source: "b", Method: MethodSessionClose},
			{Source: "c", Method: MethodOverlap, Body: []byte{msgOverlapReq, 1, 2, 3}},
		}},
		&ClusterForwardResponse{Replies: []ForwardReply{{Body: []byte{1, 2, 3}}, {Err: "boom", Transport: true}, {}}},
		&ClusterInfoResponse{Name: "c1", Generation: 9, Shard: []ShardSource{{Summary: summary, Version: 4}, {}}},
		&ClusterInfoResponse{},
		&ClusterRegisterRequest{Name: "src-α", Addr: "127.0.0.1:7201", Replicas: []string{"127.0.0.1:7211", ""}},
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
	MethodSessionClose:    {new(SessionCloseRequest), new(SessionCloseResponse)},
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
	// The session frames of the build before Final, Exclude and Next: a
	// peer still sending them is refused, not misread.
	for _, old := range []struct {
		frame []byte
		v     any
	}{
		{[]byte{7, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, new(CoverageRoundRequest)},
		{[]byte{9, 5, 2}, new(FetchCellsRequest)},
		{[]byte{10, 1, 0, 0}, new(FetchCellsResponse)},
		{[]byte{20, 1, 1, 'a', 1, 'm', 1, 9}, new(ClusterForwardRequest)},
	} {
		if err := BinaryCodec.Decode(old.frame, old.v); err == nil {
			t.Errorf("%T: retired message type %d accepted", old.v, old.frame[0])
		}
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
	for _, c := range corruptForwards(f) {
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

// forwardFrame hand-builds a forward request frame: one call declaring
// declared body bytes, then stream as the frame's tail.
func forwardFrame(declared uint64, stream []byte) []byte {
	frame := []byte{msgClusterForwardDeflateReq, 1, 1, 'a', byte(len(MethodOverlap))}
	frame = append(frame, MethodOverlap...)
	frame = binary.AppendUvarint(frame, declared)
	return append(frame, stream...)
}

// deflated is data as one raw deflate stream.
func deflated(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, _ := flate.NewWriter(&buf, flate.DefaultCompression)
	zw.Write(data)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptForwards are forward request frames the decoder must refuse.
func corruptForwards(t testing.TB) []struct {
	name     string
	declared uint64
	frame    []byte
} {
	body := bytes.Repeat([]byte("clipped query body "), 64)
	stream := deflated(t, body)
	bomb := deflated(t, make([]byte, 1<<20))
	bomb = bomb[:min(len(bomb), 1<<10)]
	n := uint64(len(body))
	return []struct {
		name     string
		declared uint64
		frame    []byte
	}{
		{"truncated stream", n, forwardFrame(n, stream[:len(stream)/2])},
		{"declared above inflated", n + 1, forwardFrame(n+1, stream)},
		{"declared below inflated", n - 1, forwardFrame(n-1, stream)},
		{"trailing bytes", n, forwardFrame(n, append(append([]byte(nil), stream...), 0))},
		{"bomb: 1 GiB from 1 KiB", 1 << 30, forwardFrame(1<<30, bomb)},
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
			{Source: "b", Method: MethodSessionClose},
			{Source: "c", Method: MethodOverlap, Body: body},
		},
		{{Source: "a", Method: MethodSessionClose}, {Source: "b", Method: MethodSessionClose, Body: []byte{}}},
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

// TestCodecForwardRejectsCorrupt: a forward whose stream is truncated,
// inflates to more or fewer bytes than declared, or is followed by
// trailing bytes errors; a bomb declaring 1 GiB from a 1 KiB stream
// errors before allocating it.
func TestCodecForwardRejectsCorrupt(t *testing.T) {
	for _, c := range corruptForwards(t) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var got ClusterForwardRequest
		err := BinaryCodec.Decode(c.frame, &got)
		runtime.ReadMemStats(&ms1)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
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

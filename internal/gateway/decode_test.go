package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dits/internal/cellset"
	"dits/internal/federation"
	"dits/internal/geo"
)

// The request path the gateway served before decode.go — encoding/json
// into these structs, then gridInput — kept as the reference the decoder
// is held against, and as the request types the package's tests marshal.

// SearchRequest is the body of both search endpoints.
type SearchRequest struct {
	Points [][2]float64 `json:"points,omitempty"`
	Cells  []uint64     `json:"cells,omitempty"`
	K      int          `json:"k,omitempty"`
	Delta  *float64     `json:"delta,omitempty"` // coverage only; default 10
}

// BatchSearchRequest is the body of POST /search/batch.
type BatchSearchRequest struct {
	Queries []SearchRequest `json:"queries"`
}

func oracleDecode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

func oracleGridInput(grid geo.Grid, points [][2]float64, cellIDs []uint64) (cellset.Set, error) {
	if len(points) == 0 && len(cellIDs) == 0 {
		return nil, fmt.Errorf("request must set points or cells")
	}
	if len(points) > 0 && len(cellIDs) > 0 {
		return nil, fmt.Errorf("request must set points or cells, not both")
	}
	if len(cellIDs) > 0 {
		return cellset.New(cellIDs...), nil
	}
	pts := make([]geo.Point, len(points))
	for i, p := range points {
		pts[i] = geo.Point{X: p[0], Y: p[1]}
	}
	return cellset.FromPoints(grid, pts), nil
}

func oracleValidate(grid geo.Grid, req *SearchRequest) (query, error) {
	if req.K == 0 {
		req.K = defaultK
	}
	if req.K < 0 || req.K > maxK {
		return query{}, fmt.Errorf("k must be in [1, %d], got %d", maxK, req.K)
	}
	if req.Delta != nil && (*req.Delta < 0 || *req.Delta != *req.Delta) {
		return query{}, fmt.Errorf("delta must be a non-negative number")
	}
	cells, err := oracleGridInput(grid, req.Points, req.Cells)
	q := query{cells: cells, k: req.K}
	if req.Delta != nil {
		q.delta, q.hasDelta = *req.Delta, true
	}
	return q, err
}

func oracleSearch(grid geo.Grid, body []byte) (query, error) {
	var req SearchRequest
	if err := oracleDecode(body, &req); err != nil {
		return query{}, err
	}
	return oracleValidate(grid, &req)
}

func oracleBatch(grid geo.Grid, body []byte) ([]federation.BatchQuery, error) {
	var req BatchSearchRequest
	if err := oracleDecode(body, &req); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, fmt.Errorf("batch must contain at least one query")
	}
	if len(req.Queries) > maxBatchQueries {
		return nil, fmt.Errorf("batch holds %d queries, max %d", len(req.Queries), maxBatchQueries)
	}
	batch := make([]federation.BatchQuery, len(req.Queries))
	for i := range req.Queries {
		if req.Queries[i].Delta != nil {
			return nil, fmt.Errorf("query %d: batch queries are overlap-only and must not set delta", i)
		}
		q, err := oracleValidate(grid, &req.Queries[i])
		if err != nil {
			return nil, fmt.Errorf("query %d: %v", i, err)
		}
		batch[i] = federation.BatchQuery{Cells: q.cells, K: q.k}
	}
	return batch, nil
}

func oracleIngest(grid geo.Grid, body []byte) (upsert, error) {
	var req IngestRequest
	if err := oracleDecode(body, &req); err != nil {
		return upsert{}, err
	}
	if req.Source == "" {
		return upsert{}, fmt.Errorf("request must set source")
	}
	cells, err := oracleGridInput(grid, req.Points, req.Cells)
	return upsert{source: req.Source, id: req.ID, name: req.Name, cells: cells}, err
}

func testGrid() geo.Grid {
	return geo.NewGrid(12, geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90})
}

// dropped names the bodies encoding/json accepted and the decoder refuses
// on purpose (docs/PROTOCOL.md, "Body grammar"), by the decoder's message.
var dropped = []string{
	"want [x, y]",     // a point that is not exactly two numbers
	"got null",        // null inside points or cells
	"trailing data",   // bytes after the top-level object
	"duplicate field", // one field given twice, in any spelling
}

// differ holds one decoder against its oracle on one body.
func differ[T any](t *testing.T, kind string, body []byte, decode, oracle func(geo.Grid, []byte) (T, error)) {
	t.Helper()
	grid := testGrid()
	got, err := decode(grid, body)
	want, oerr := oracle(grid, body)
	switch {
	case err == nil && oerr != nil:
		t.Fatalf("%s %q: decoder accepts, oracle refuses: %v", kind, body, oerr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s %q:\n got %+v\nwant %+v", kind, body, got, want)
	case err != nil && oerr == nil:
		for _, msg := range dropped {
			if strings.Contains(err.Error(), msg) {
				return
			}
		}
		t.Fatalf("%s %q: oracle accepts, decoder refuses: %v", kind, body, err)
	}
}

func differAll(t *testing.T, body []byte) {
	t.Helper()
	differ(t, "search", body, decodeSearch, oracleSearch)
	differ(t, "batch", body, decodeBatch, oracleBatch)
	differ(t, "ingest", body, decodeIngest, oracleIngest)
}

// protocolExamples are the request bodies documented in docs/PROTOCOL.md.
var protocolExamples = []string{
	`{"points": [[-77.0, 38.9], [-76.9, 38.95], [-76.8, 39.0]], "k": 5}`,
	`{"points": [[-77.0, 38.9], [-76.9, 38.95]], "delta": 10, "k": 3}`,
	`{"queries": [
  {"points": [[-77.0, 38.9], [-76.9, 38.95]], "k": 3},
  {"cells": [123456789, 123456790]}
]}`,
	`{"source": "Transit", "id": 7001, "name": "route-7001",
 "points": [[-77.0, 38.9], [-76.9, 38.95]]}`,
}

func FuzzDecodeBody(f *testing.F) {
	seeds := append([]string{
		// exponents, signed zero, range
		`{"points":[[1e2,-2.5E-3],[-0,0.0],[1e-999,5]],"k":7,"delta":0}`,
		`{"points":[[1e999,1]]}`, `{"delta":1e999,"cells":[1]}`, `{"delta":-1,"cells":[1]}`,
		`{"k":1.0,"cells":[1]}`, `{"k":1e2,"cells":[1]}`, `{"k":-0,"cells":[1]}`, `{"k":01,"cells":[1]}`,
		`{"k":9223372036854775808,"cells":[1]}`, `{"id":-9223372036854775808,"source":"a","cells":[1]}`,
		`{"cells":[18446744073709551615,0,7,7]}`, `{"cells":[18446744073709551616]}`, `{"cells":[-0]}`, `{"cells":[1.0]}`,
		`{"points":[[1.,2]]}`, `{"points":[[.5,2]]}`, `{"points":[[+1,2]]}`, `{"points":[[-,2]]}`, `{"points":[[1e,2]]}`, `{"points":[[0x1,2]]}`,
		// null fields
		`{"points":null,"cells":[3],"k":null,"delta":null}`, `{"points":[[1,2]],"cells":null}`, `null`,
		`{"queries":null}`, `{"queries":[null]}`, `{"queries":[{"cells":[1],"delta":null}]}`,
		`{"source":null,"id":null,"name":null,"cells":[1]}`, `{"source":"s","id":null,"name":null,"cells":[1]}`,
		`{"points":[null]}`, `{"points":[[null,1]]}`, `{"points":[[1,null]]}`, `{"cells":[null]}`,
		// keys: escaped, case-varied, folded, duplicated
		`{"po\u0069nts":[[1,2]],"K":3}`, `{"POINTS":[[1,2]],"Delta":2}`, `{"` + "\u212a" + `":4,"cells":[1]}`,
		`{"cell` + "\u017f" + `":[1]}`, `{"\u212A":4,"cells":[1]}`, `{"k\u0000":4,"cells":[1]}`, `{"":1}`, `{"k ":1,"cells":[1]}`,
		`{"k":1,"k":2,"cells":[1]}`, `{"k":1,"K":2,"cells":[1]}`, `{"cells":[1],"cells":[2]}`, `{"points":[[1,2]],"points":null}`,
		`{"queries":[{"cells":[1],"k":5}],"queries":[{"cells":[2]}]}`,
		"{\"k\xff\":1,\"cells\":[1]}", "{\"source\":\"a\xffb\",\"cells\":[1]}",
		// strings
		`{"source":"a\"b\\c\/\b\f\n\r\t\u00e9\ud83d\ude00","name":"é😀","id":3,"cells":[1]}`,
		`{"source":"\ud800","cells":[1]}`, `{"source":"\x","cells":[1]}`, `{"source":"\u12","cells":[1]}`,
		"{\"source\":\"a\nb\",\"cells\":[1]}", "{\"source\":\"a\tb\",\"cells\":[1]}", `{"source":"unterminated`, `{"source":"a\`,
		`{"source":5,"cells":[1]}`, `{"source":"s","id":"7","cells":[1]}`,
		// arity, nesting, junk, trailing bytes
		`{"points":[[1.5]]}`, `{"points":[[1,2,3]]}`, `{"points":[[]]}`, `{"points":[[1,2,{"a":[1]}]]}`, `{"points":[1,2]}`,
		`{"points":[[[1,2]]]}`, `{"points":{"x":1}}`, `{"points":"1,2"}`, `{"points":[[1,2],]}`, `{"points":[[1,2] [3,4]]}`, `{"points":[[1 2]]}`,
		`{"cells":[[1]]}`, `{"cells":{"a":1}}`, `{"cells":[1,]}`, `{"cells":[1 2]}`, `{"cells":true}`, `{"k":true,"cells":[1]}`,
		`{"points":[[1,2]]}garbage`, `{"points":[[1,2]]} {"k":1}`, `{"points":[[1,2]]}` + " \t\r\n", `{"cells":[1]}]`, `{"cells":[1]}}`,
		`[]`, `[{"cells":[1]}]`, `"points"`, `5`, `true`, ``, ` `, `{`, `{}`, `{,}`, `{"k"}`, `{"k":}`, `{"k":1,}`, `{"k" 1}`, `{k:1}`,
		"\xef\xbb\xbf{\"cells\":[1]}", `{"cells":[1]}` + "\x00", "{\"cells\":\v[1]}", `nul`, `nullx`, `{"k":nullx}`,
		// both forms, neither, limits
		`{"points":[[1,2]],"cells":[1]}`, `{"points":[],"cells":[1]}`, `{"points":[[1,2]],"cells":[]}`, `{"points":[],"cells":[]}`,
		`{"k":1000,"cells":[1]}`, `{"k":1001,"cells":[1]}`, `{"k":-1,"cells":[1]}`, `{"kk":3,"cells":[1]}`,
		`{"queries":[]}`, `{"queries":[{}]}`, `{"queries":[{"cells":[1],"delta":5}]}`, `{"queries":[{"cells":[1]},{"cells":[]}]}`,
		`{"queries":{"cells":[1]}}`, `{"qs":[{"cells":[1]}]}`, `{"queries":[{"cells":[1]}],"k":1}`,
		`{"source":"","id":1,"cells":[1]}`, `{"id":1,"cells":[1]}`, `{"source":"s","cells":[1],"delta":1}`,
	}, protocolExamples...)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// Truncations at every byte of a valid body of each kind.
	for _, s := range protocolExamples {
		for i := range s {
			f.Add([]byte(s[:i]))
		}
	}
	f.Fuzz(differAll)
}

// FuzzFloat holds cursor.float's scan-time conversion against number and
// strconv.ParseFloat: the same bits (the sign of zero too), the same
// cursor offset, and the same error. FuzzDecodeBody cannot see a last-bit
// error, since gridding maps neighbouring floats to one cell.
func FuzzFloat(f *testing.F) {
	for _, s := range []string{
		// shortest-form coordinates of 17 digits, and ones of 19 and 20
		"-76.993660000000006", "38.950000000000003", "-0.10000000000000001", "179.99999999999997",
		"1234567890.123456789", "9999999999999999999", "12345678901234567890", "-1.0000000000000000001",
		// 2^53 + 1, exactly halfway: ties go to even
		"9007199254740993", "9007199254740993.0", "9007199254740995", "18014398509481987.00",
		// the grammar's edges, all left to strconv
		"0.0000000000000000001", "-0", "-0.0", "1e5", "1.", ".5", "01.5", "-", "18446744073709551615.5",
		"", " 1", "1.5.3", "-null", "0e0", "00", "1E-2", "5,", "0.", "+1",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		fast := cursor{buf: in}
		got, gotErr := fast.float()
		slow := cursor{buf: in}
		want, wantErr := func() (float64, error) {
			lit, err := slow.number()
			if err != nil {
				return 0, err
			}
			v, err := strconv.ParseFloat(string(lit), 64)
			return v, slow.wrap(err)
		}()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, want %v", in, gotErr, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) || fast.pos != slow.pos {
			t.Fatalf("%q: %v at offset %d, want %v at offset %d", in, got, fast.pos, want, slow.pos)
		}
	})
}

// TestDecodeStrictness pins what the decoder refuses that encoding/json
// let through (the "dropped" classes, one row each plus the batch limit's
// index) and the leniencies it keeps.
func TestDecodeStrictness(t *testing.T) {
	grid := testGrid()
	search := func(body string) error { _, err := decodeSearch(grid, []byte(body)); return err }
	batch := func(body string) error { _, err := decodeBatch(grid, []byte(body)); return err }
	ingest := func(body string) error { _, err := decodeIngest(grid, []byte(body)); return err }
	members := func(n int) string {
		return `{"queries":[` + strings.TrimSuffix(strings.Repeat(`{"cells":[1]},`, n), ",") + `]}`
	}
	cases := []struct {
		name   string
		decode func(string) error
		body   string
		want   string // substring of the error; "" = accepted
	}{
		{"short point", search, `{"points":[[1,2],[1.5]]}`, "point 1: want [x, y]"},
		{"long point", search, `{"points":[[1,2,3]]}`, "point 0: want [x, y]"},
		{"empty point", ingest, `{"source":"s","points":[[]]}`, "point 0: want [x, y]"},
		{"null point", search, `{"points":[[1,2],null]}`, "point 1: want [x, y]"},
		{"point in batch", batch, `{"queries":[{"cells":[1]},{"points":[[1]]}]}`, "query 1: point 0: want [x, y]"},
		{"null coordinate", search, `{"points":[[null,2]]}`, "got null"},
		{"null cell", search, `{"cells":[null]}`, "got null"},
		{"trailing garbage", search, `{"points":[[1,2]]}garbage`, "trailing data"},
		{"trailing object", batch, members(1) + `{}`, "trailing data"},
		{"trailing bracket", ingest, `{"source":"s","cells":[1]}]`, "trailing data"},
		{"duplicate key", search, `{"k":1,"k":2,"cells":[1]}`, `duplicate field "k"`},
		{"duplicate key, folded", search, `{"cells":[1],"CELLS":[2]}`, `duplicate field "cells"`},
		{"batch at the limit", batch, members(maxBatchQueries), ""},
		{"batch over the limit", batch, members(10000), "query 256: batch holds more than 256 queries"},

		{"trailing whitespace", search, `{"cells":[1]}` + " \n\t\r", ""},
		{"null fields", search, `{"points":null,"cells":[1],"k":null,"delta":null}`, ""},
		{"null strings", ingest, `{"source":"s","id":null,"name":null,"cells":[1]}`, ""},
		{"case-folded keys", search, `{"Points":[[1,2]],"K":3,"DELTA":1}`, ""},
		{"kelvin-sign k", search, "{\"\u212a\":3,\"cells\":[1]}", ""},
		{"escaped key", search, `{"c\u0065lls":[1]}`, ""},
	}
	for _, tc := range cases {
		err := tc.decode(tc.body)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error = %v, want it to contain %q", tc.name, err, tc.want)
		}
		differAll(t, []byte(tc.body))
	}
}

// pointsBody returns a search body of n distinct points in the shortest
// float form that round-trips, the way the benchmark's generator writes
// them. Lattice points are short decimals, whose mantissas fit 53 bits;
// random ones are what generated data is, mostly 16 or 17 digits, and
// reach cursor.float's 128-bit division.
func pointsBody(n int, random bool) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	buf := []byte(`{"points":[`)
	for i := 0; i < n; i++ {
		x, y := -77+float64(i%997)*0.00317, 38+float64(i%1009)*0.00271
		if random {
			x, y = -77+rng.Float64()*2.5, 36.8+rng.Float64()*3
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, y, 'g', -1, 64)
		buf = append(buf, ']')
	}
	return append(buf, `],"k":10}`...)
}

// TestDecodeZeroAllocPerPoint: a body a hundred times longer costs only
// the extra growth steps of the one cell slice — no per-point object.
func TestDecodeZeroAllocPerPoint(t *testing.T) {
	grid := testGrid()
	allocs := func(n int) float64 {
		body := pointsBody(n, false)
		return testing.AllocsPerRun(20, func() {
			if _, err := decodeSearch(grid, body); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	t.Logf("allocs: 100 points %.0f, 10,000 points %.0f", small, large)
	// append reaches 100× the length in ≤ 14 reallocations.
	if large-small > 14 {
		t.Fatalf("10,000 points cost %.0f allocations, 100 points %.0f: want the difference ≤ 14", large, small)
	}
}

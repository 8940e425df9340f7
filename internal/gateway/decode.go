package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"dits/internal/cellset"
	"dits/internal/federation"
	"dits/internal/geo"
)

// Request bodies are read once and walked once. A query is a spatial
// dataset (Definition 5), so the walk grids every [x, y] of "points" the
// moment it is read and appends the cell ID to the slice that becomes the
// request's cellset.Set: coordinates are never stored, and nothing goes
// through reflection. docs/PROTOCOL.md ("Gateway API") gives the accepted
// grammar; FuzzDecodeBody holds this file against encoding/json, and
// FuzzFloat holds its number conversion against strconv.ParseFloat.

// maxPresizedBody caps the read buffer allocated up front from a request's
// Content-Length; a longer body grows the buffer as its bytes arrive, so a
// client pays for memory with data, not with a header.
const maxPresizedBody = 1 << 20

// readBody reads the whole request body under the maxBodyBytes cap. The
// error is an *http.MaxBytesError when the body is over the cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	// One spare byte lets the Read that reports EOF find room.
	buf := make([]byte, 0, min(max(r.ContentLength, 511), maxPresizedBody)+1)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
	}
}

// decodeBody reads r's body and decodes it, answering 413 or 400 itself
// when it cannot; ok reports whether the handler should go on. Decoding
// errors are safe to surface to clients.
func decodeBody[T any](g *Gateway, w http.ResponseWriter, r *http.Request, decode func(geo.Grid, []byte) (T, error)) (v T, ok bool) {
	body, err := readBody(w, r)
	if err != nil {
		g.decodeError(w, err)
		return v, false
	}
	if v, err = decode(g.grid, body); err != nil {
		g.badRequest(w, "%v", err)
		return v, false
	}
	return v, true
}

// query is a decoded, validated search body.
type query struct {
	cells    cellset.Set
	k        int
	delta    float64 // meaningful only when hasDelta
	hasDelta bool
}

// upsert is a decoded, validated POST /ingest/dataset body.
type upsert struct {
	source string
	id     int
	name   string
	cells  cellset.Set
}

var (
	searchFields = []string{"points", "cells", "k", "delta"}
	batchFields  = []string{"queries"}
	ingestFields = []string{"source", "id", "name", "points", "cells"}
)

func decodeSearch(grid geo.Grid, body []byte) (query, error) {
	c := cursor{buf: body}
	q, err := c.query(grid)
	if err == nil {
		err = c.end()
	}
	return q, err
}

// decodeBatch validates member i while walking it and stops at the first
// bad one, so an oversized or malformed batch costs no more than its valid
// prefix.
func decodeBatch(grid geo.Grid, body []byte) ([]federation.BatchQuery, error) {
	c := cursor{buf: body}
	var batch []federation.BatchQuery
	err := c.object(batchFields, func(string) error {
		return c.list(func(i int) error {
			if i == maxBatchQueries {
				return fmt.Errorf("query %d: batch holds more than %d queries", i, maxBatchQueries)
			}
			q, err := c.query(grid)
			if err != nil {
				return fmt.Errorf("query %d: %w", i, err)
			}
			if q.hasDelta {
				return fmt.Errorf("query %d: batch queries are overlap-only and must not set delta", i)
			}
			batch = append(batch, federation.BatchQuery{Cells: q.cells, K: q.k})
			return nil
		})
	})
	if err == nil {
		err = c.end()
	}
	if err == nil && len(batch) == 0 {
		err = fmt.Errorf("batch must contain at least one query")
	}
	return batch, err
}

func decodeIngest(grid geo.Grid, body []byte) (upsert, error) {
	c := cursor{buf: body}
	var in upsert
	var data payload
	err := c.object(ingestFields, func(field string) (err error) {
		switch field {
		case "source":
			in.source, err = c.str()
		case "id":
			in.id, err = c.int()
		case "name":
			in.name, err = c.str()
		case "points":
			err = data.points(&c, grid)
		case "cells":
			err = data.cellIDs(&c)
		}
		return err
	})
	if err == nil {
		err = c.end()
	}
	if err == nil && in.source == "" {
		err = fmt.Errorf("request must set source")
	}
	if err == nil {
		in.cells, err = data.set()
	}
	return in, err
}

// query decodes and validates the search body at the cursor, applying the
// k default.
func (c *cursor) query(grid geo.Grid) (query, error) {
	var q query
	var data payload
	err := c.object(searchFields, func(field string) (err error) {
		switch field {
		case "points":
			err = data.points(c, grid)
		case "cells":
			err = data.cellIDs(c)
		case "k":
			q.k, err = c.int()
		case "delta":
			if !c.null() {
				q.delta, err = c.float()
				q.hasDelta = true
			}
		}
		return err
	})
	if err != nil {
		return q, err
	}
	if q.k == 0 {
		q.k = defaultK
	}
	if q.k < 0 || q.k > maxK {
		return q, fmt.Errorf("k must be in [1, %d], got %d", maxK, q.k)
	}
	if q.hasDelta && q.delta < 0 {
		return q, fmt.Errorf("delta must be a non-negative number")
	}
	q.cells, err = data.set()
	return q, err
}

// payload collects the data half of a body — the cells of its "points",
// gridded as they are read, or its "cells" — shared by the search
// endpoints and the ingest upsert, so query data and ingested data are
// always gridded identically. Both lists land in ids: a body that fills
// both is refused whole.
type payload struct {
	ids             []uint64
	nPoints, nCells int
}

// points walks [[x, y], ...] under the federation's grid.
func (p *payload) points(c *cursor, grid geo.Grid) error {
	return c.list(func(i int) error {
		pt, err := c.point(i)
		if err != nil {
			return err
		}
		p.ids = append(p.ids, grid.CellID(pt))
		p.nPoints++
		return nil
	})
}

// cellIDs walks a list of precomputed z-order cell IDs.
func (p *payload) cellIDs(c *cursor) error {
	return c.list(func(int) error {
		lit, err := c.number()
		if err != nil {
			return err
		}
		id, err := strconv.ParseUint(string(lit), 10, 64)
		if err != nil {
			return c.wrap(err)
		}
		p.ids = append(p.ids, id)
		p.nCells++
		return nil
	})
}

// set returns the payload as a Set, taking ids over. Exactly one of points
// and cells must have been non-empty.
func (p *payload) set() (cellset.Set, error) {
	if p.nPoints == 0 && p.nCells == 0 {
		return nil, fmt.Errorf("request must set points or cells")
	}
	if p.nPoints > 0 && p.nCells > 0 {
		return nil, fmt.Errorf("request must set points or cells, not both")
	}
	return cellset.Normalize(p.ids), nil
}

// cursor walks one JSON text. Every method skips leading whitespace, and
// leaves the cursor just past what it consumed. null stands for an absent
// value wherever a field's value may go, as it did under encoding/json.
type cursor struct {
	buf []byte
	pos int
}

func (c *cursor) errorf(format string, args ...any) error {
	return fmt.Errorf("bad request body: offset %d: %s", c.pos, fmt.Sprintf(format, args...))
}

// wrap reports a strconv or json failure on the token just consumed.
func (c *cursor) wrap(err error) error {
	if err == nil {
		return nil
	}
	return c.errorf("%v", err)
}

func (c *cursor) ws() {
	for c.pos < len(c.buf) {
		switch c.buf[c.pos] {
		case ' ', '\t', '\r', '\n':
			c.pos++
		default:
			return
		}
	}
}

// eat consumes ch if it is next.
func (c *cursor) eat(ch byte) bool {
	c.ws()
	if c.pos < len(c.buf) && c.buf[c.pos] == ch {
		c.pos++
		return true
	}
	return false
}

// null consumes the literal null if it is next.
func (c *cursor) null() bool {
	c.ws()
	if bytes.HasPrefix(c.buf[c.pos:], []byte("null")) {
		c.pos += len("null")
		return true
	}
	return false
}

// end refuses anything but whitespace after the top-level value.
func (c *cursor) end() error {
	c.ws()
	if c.pos < len(c.buf) {
		return c.errorf("trailing data after the request object")
	}
	return nil
}

// object walks {"key": value, ...}. Keys match fields as encoding/json
// matches struct tags — case-folded, escapes resolved — and visit is
// called with the matched field's canonical name, the cursor at its value.
// A key outside fields, or one given twice, is an error.
func (c *cursor) object(fields []string, visit func(field string) error) error {
	if c.null() {
		return nil
	}
	if !c.eat('{') {
		return c.errorf("want an object")
	}
	if c.eat('}') {
		return nil
	}
	seen := 0 // bit i: fields[i] was given
	for {
		key, err := c.str()
		if err != nil {
			return err
		}
		i := slices.IndexFunc(fields, func(f string) bool { return strings.EqualFold(f, key) })
		if i < 0 {
			return c.errorf("unknown field %q", key)
		}
		if seen&(1<<i) != 0 {
			return c.errorf("duplicate field %q", fields[i])
		}
		seen |= 1 << i
		if !c.eat(':') {
			return c.errorf("want ':' after the key")
		}
		if err := visit(fields[i]); err != nil {
			return err
		}
		if c.eat('}') {
			return nil
		}
		if !c.eat(',') {
			return c.errorf("want ',' or '}'")
		}
	}
}

// list walks [elem, ...], calling elem with the cursor at element i.
func (c *cursor) list(elem func(i int) error) error {
	if c.null() {
		return nil
	}
	if !c.eat('[') {
		return c.errorf("want an array")
	}
	if c.eat(']') {
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		if c.eat(']') {
			return nil
		}
		if !c.eat(',') {
			return c.errorf("want ',' or ']'")
		}
	}
}

// point reads one [x, y]: exactly two numbers.
func (c *cursor) point(i int) (p geo.Point, err error) {
	if c.eat('[') && !c.eat(']') {
		if p.X, err = c.float(); err != nil {
			return p, err
		}
		if c.eat(',') {
			if p.Y, err = c.float(); err != nil {
				return p, err
			}
			if c.eat(']') {
				return p, nil
			}
		}
	}
	return p, fmt.Errorf("point %d: want [x, y]", i)
}

// str reads one string; null reads as "".
func (c *cursor) str() (string, error) {
	if c.null() {
		return "", nil
	}
	if !c.eat('"') {
		return "", c.errorf("want a string")
	}
	start, plain := c.pos, true
	for c.pos < len(c.buf) {
		switch ch := c.buf[c.pos]; {
		case ch == '"':
			lit := c.buf[start:c.pos]
			c.pos++
			if plain {
				return string(lit), nil
			}
			// Escapes, control bytes and invalid UTF-8 are rare: leave
			// them to the one implementation clients already met.
			var s string
			err := json.Unmarshal(c.buf[start-1:c.pos], &s)
			return s, c.wrap(err)
		case ch == '\\':
			plain = false
			c.pos++ // the escaped byte is not a closing quote
		case ch < ' ' || ch >= 0x80:
			plain = false
		}
		c.pos++
	}
	return "", c.errorf("unterminated string")
}

// number scans one JSON number literal and returns its text.
func (c *cursor) number() ([]byte, error) {
	c.ws()
	buf, i := c.buf, c.pos
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	intEnd := digitsEnd(buf, i)
	switch {
	case intEnd == i && c.null():
		return nil, c.errorf("want a number, got null")
	case intEnd == i:
		return nil, c.errorf("want a number")
	case buf[i] == '0':
		intEnd = i + 1 // a leading zero stands alone
	}
	i = intEnd
	if i < len(buf) && buf[i] == '.' {
		fracEnd := digitsEnd(buf, i+1)
		if fracEnd == i+1 {
			return nil, c.errorf("malformed number")
		}
		i = fracEnd
	}
	if i < len(buf) && buf[i]|0x20 == 'e' {
		i++
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		expEnd := digitsEnd(buf, i)
		if expEnd == i {
			return nil, c.errorf("malformed number")
		}
		i = expEnd
	}
	lit := buf[c.pos:i]
	c.pos = i
	return lit, nil
}

// digitsEnd returns the end of the run of ASCII digits starting at buf[i].
func digitsEnd(buf []byte, i int) int {
	for i < len(buf) && '0' <= buf[i] && buf[i] <= '9' {
		i++
	}
	return i
}

// float reads one number. A plain decimal — no exponent, at most 19
// digits, as clients write coordinates — is converted while it is
// scanned; any other literal, and every malformed one, goes through
// number and strconv.ParseFloat. Both paths return the same bits and
// leave the cursor at the same offset (FuzzFloat).
func (c *cursor) float() (float64, error) {
	c.ws()
	if f, end, ok := scanDecimal(c.buf, c.pos); ok {
		c.pos = end
		return f, nil
	}
	lit, err := c.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, c.wrap(err)
}

// pow10 holds 10^0 … 10^19, every power of ten below 2^64.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// scanDecimal converts the JSON number at buf[i] and returns the offset
// just past it, or ok = false when the literal is not a plain decimal of
// at most 19 digits: an optional '-', an integer part, and an optional
// '.' with at least one digit after it, but no exponent.
//
// The digits accumulate into m, frac of them after the point, so the
// value is exactly m / 10^frac, and both fit a uint64. When m ≤ 2^53 both
// are exact as floats and one IEEE division rounds correctly (Clinger,
// PLDI 1990). Otherwise a 128-by-64-bit division yields a 63- or 64-bit
// quotient of m / 10^frac and its remainder, which round to 53 bits half to
// even with the remainder as the sticky bit.
func scanDecimal(buf []byte, i int) (f float64, end int, ok bool) {
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	start := i
	var m uint64
	for i < len(buf) && '0' <= buf[i] && buf[i] <= '9' {
		m = m*10 + uint64(buf[i]-'0')
		i++
		if buf[start] == '0' {
			break // a leading zero stands alone
		}
	}
	digits := i - start
	if digits == 0 {
		return 0, 0, false
	}
	frac := 0
	if i < len(buf) && buf[i] == '.' {
		j := i + 1
		for j < len(buf) && '0' <= buf[j] && buf[j] <= '9' {
			m = m*10 + uint64(buf[j]-'0')
			j++
			if digits+j-i-1 > 19 {
				return 0, 0, false
			}
		}
		frac = j - i - 1
		if frac == 0 {
			return 0, 0, false
		}
		i = j
	}
	if digits+frac > 19 || i < len(buf) && buf[i]|0x20 == 'e' {
		return 0, 0, false
	}
	if m <= 1<<53 {
		f = float64(m) / float64(pow10[frac])
	} else {
		f = divRound(m, pow10[frac])
	}
	if neg {
		f = -f
	}
	return f, i, true
}

// divRound returns m / d correctly rounded, for m > 2^53 and d ≥ 1 (so the
// quotient is a normal float64).
func divRound(m, d uint64) float64 {
	z := bits.LeadingZeros64(m)
	t := bits.Len64(d) - 1
	// m<<z is in [2^63, 2^64) and d in [2^t, 2^(t+1)), so the quotient of
	// (m<<z)·2^t by d is in (2^62, 2^64): hi < d, and it has 63 or 64 bits.
	mn := m << z
	q, r := bits.Div64(mn>>(64-t), mn<<t, d)
	drop := uint(bits.Len64(q) - 53)
	mant, rest, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if rest > half || rest == half && (r != 0 || mant&1 == 1) {
		mant++
	}
	// The value is mant · 2^(drop-z-t), with mant's top bit at 2^52
	// unless rounding carried it to 2^53.
	exp := int(drop) - z - t + 52
	if mant == 1<<53 {
		mant >>= 1
		exp++
	}
	return math.Float64frombits(uint64(exp+1023)<<52 | mant&(1<<52-1))
}

// int reads an integer field; null reads as 0.
func (c *cursor) int() (int, error) {
	if c.null() {
		return 0, nil
	}
	lit, err := c.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), c.wrap(err)
}

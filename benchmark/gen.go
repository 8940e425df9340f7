package main

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/workload"
)

// base is one dataset a query can be shaped after.
type base struct {
	source string
	pts    []geo.Point
	cells  int
}

// combo is one query: a base dataset translated by whole grid cells.
// Whole-cell steps make distinct combos distinct cell sets (a finite set
// never equals its own translate), which is what keeps the result cache
// cold on the no-repeat classes.
type combo struct {
	base   int32
	dx, dy int8
}

// generator turns a seed into the run's request streams. Everything the
// stack receives comes from here: query sampling, translation offsets,
// the Zipf hot pool, class order and the mutation trace all derive from
// the seed, so one seed is one byte-identical request sequence per stream.
type generator struct {
	spec  workloadSpec
	seed  int64
	grid  geo.Grid
	bases []base
	// order lists every combo once. A dataset's first 25 uses are offset
	// by at most two cells; offsets of 3 and 4 cells follow and are reached
	// only if a run outlasts 25 queries per dataset.
	order []combo
	hot   []combo // Zipf pool: combos that order never sends
	trace []workload.Mutation
}

// phi is the golden ratio's fractional part: stepping by it around the
// unit circle visits it as evenly as any fixed step can.
const phi = 0.6180339887498949

// mixStep, √2-1, steps the class sweep. It is rationally independent of
// phi, which steps the query sweep, so which class a request has says
// nothing about which dataset it is shaped after.
const mixStep = 0.41421356237309515

// stream ids partition order by position, so the two clients, the answer
// check and the kernel pass never send the same query.
const (
	streamClient0 = iota
	streamClient1
	streamCheck
	streamKernel
	numStreams
)

func newGenerator(spec workloadSpec, cp *corpus, seed int64) *generator {
	g := &generator{spec: spec, seed: seed, grid: cp.grid}
	// A query near the edge of the world would have its translates clamped
	// into the same border cells, so such datasets are not shaped after; nor
	// is a dataset whose cells are a translate of an earlier one's (transit
	// routes share corridors), since two such queries could coincide.
	side := float64(cp.grid.Side())
	inner := geo.Rect{MinX: maxOffset, MinY: maxOffset, MaxX: side - 1 - maxOffset, MaxY: side - 1 - maxOffset}
	shapes := make(map[uint64]bool)
	for _, src := range cp.sources {
		start := len(g.bases)
		for _, d := range src.Datasets {
			nd := dataset.NewNode(cp.grid, d)
			if nd == nil || nd.Coverage() < minCells || !inner.ContainsRect(nd.Rect) {
				continue
			}
			if h := shapeHash(nd); !shapes[h] {
				shapes[h] = true
				g.bases = append(g.bases, base{source: src.Name, pts: d.Points, cells: nd.Coverage()})
			}
		}
		// Bases lie sorted by source, then size: the sweep below then
		// stratifies every stretch of queries over both.
		slices.SortStableFunc(g.bases[start:], func(a, b base) int { return cmp.Compare(a.cells, b.cells) })
	}

	// Every base gets its own order of offsets: the 25 within two cells
	// shuffled, then the rest.
	rng := rand.New(rand.NewSource(seed))
	var near, far [][2]int8
	for dx := -maxOffset; dx <= maxOffset; dx++ {
		for dy := -maxOffset; dy <= maxOffset; dy++ {
			if max(abs(dx), abs(dy)) <= 2 {
				near = append(near, [2]int8{int8(dx), int8(dy)})
			} else {
				far = append(far, [2]int8{int8(dx), int8(dy)})
			}
		}
	}
	perBase := len(near) + len(far)
	offsets := make([][2]int8, 0, len(g.bases)*perBase)
	for range g.bases {
		at := len(offsets)
		offsets = append(append(offsets, near...), far...)
		n, f := offsets[at:at+len(near)], offsets[at+len(near):]
		rng.Shuffle(len(n), func(i, j int) { n[i], n[j] = n[j], n[i] })
		rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	}

	// The query sequence sweeps the sorted bases with golden-ratio steps
	// from a seeded start. Unlike a shuffle, any stretch of it covers the
	// sources and dataset sizes in their true proportions, so two seeds
	// differ in which datasets and offsets they send, not in how heavy
	// their queries are on average.
	used := make([]int, len(g.bases))
	take := func(b int) combo {
		o := offsets[b*perBase+used[b]]
		used[b]++
		return combo{int32(b), o[0], o[1]}
	}
	// The hot pool's rank r is shaped after the dataset at a fixed quantile
	// of the sorted bases (bit-reversed ranks spread the popular head over
	// sources and sizes); only its offset is seeded. With a Zipf head this
	// heavy, a pool drawn at random would make each seed a different
	// workload: whether rank 0 is a small transit route or a large survey
	// decides a tenth of all requests.
	for r := 0; r < min(hotPool, len(g.bases)); r++ {
		q := 0.5 + float64(bits.Reverse32(uint32(r)))/(1<<32)
		g.hot = append(g.hot, take(int((q-math.Floor(q))*float64(len(g.bases)))))
	}
	u0 := rng.Float64()
	total := len(g.bases)*perBase - len(g.hot)
	for i := 0; len(g.order) < total && i < 4*total; i++ {
		x := u0 + float64(i)*phi
		b := int((x - math.Floor(x)) * float64(len(g.bases)))
		if used[b] < perBase {
			g.order = append(g.order, take(b))
		}
	}

	if len(spec.mutable) > 0 {
		srcs := cp.sources[:0:0]
		for _, src := range cp.sources {
			if slices.Contains(spec.mutable, src.Name) {
				srcs = append(srcs, src)
			}
		}
		g.trace = workload.GenerateTrace(srcs, traceLen, seed)
	}
	return g
}

// shapeHash hashes a dataset's cells relative to its own corner, so two
// datasets that are translates of each other hash alike.
func shapeHash(nd *dataset.Node) uint64 {
	rel := make([]uint64, 0, nd.Coverage())
	for _, c := range nd.FlatCells() {
		x, y := geo.ZDecode(c)
		rel = append(rel, uint64(x-uint32(nd.Rect.MinX))<<32|uint64(y-uint32(nd.Rect.MinY)))
	}
	slices.Sort(rel)
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rel {
		binary.LittleEndian.PutUint64(buf[:], r)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// request is one generated HTTP request.
type request struct {
	class  class
	method string
	path   string
	body   []byte
	combos []combo // the queries inside, for the answer check
}

// stream is one deterministic request sequence. It is used by one
// goroutine at a time.
type stream struct {
	g      *generator
	rng    *rand.Rand
	zipf   *rand.Zipf
	cursor int     // next position in g.order
	mixAt  float64 // position of the class sweep, in [0, 1)
	buf    []byte
}

func (g *generator) stream(id int) *stream {
	rng := rand.New(rand.NewSource(g.seed*int64(numStreams) + int64(id) + 1))
	s := &stream{g: g, rng: rng, cursor: id, mixAt: rng.Float64()}
	if len(g.hot) > 1 {
		s.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(g.hot)-1))
	}
	return s
}

// fresh returns the stream's next never-used combo.
func (s *stream) fresh() combo {
	c := s.g.order[s.cursor%len(s.g.order)]
	s.cursor += numStreams
	return c
}

// pickClass takes the next request's class from the workload's mix. It
// sweeps [0, 1) in even steps from a seeded start instead of drawing at
// random: every stretch of requests then holds the classes in the mix's
// proportions, where independent draws would make, say, the number of
// CJSPs in a cluster-mix run (a tenth of its requests, most of its time)
// vary by a tenth from seed to seed.
func (s *stream) pickClass() class {
	r := s.mixAt
	if s.mixAt += mixStep; s.mixAt >= 1 {
		s.mixAt--
	}
	for _, sh := range s.g.spec.mix {
		if r < sh.p {
			return sh.c
		}
		r -= sh.p
	}
	return s.g.spec.mix[len(s.g.spec.mix)-1].c
}

// next builds the stream's next request. A classMutate request carries no
// body: mutations must reach the stack in trace order, so the sender binds
// the next trace entry when it holds the mutation lock (see mutation).
func (s *stream) next() *request {
	return s.build(s.pickClass())
}

func (s *stream) build(c class) *request {
	switch c {
	case classOJSP:
		q := s.fresh()
		return &request{class: c, method: "POST", path: "/search/overlap",
			body: s.searchBody(q, ojspK, false), combos: []combo{q}}
	case classOJSPHot:
		q := s.g.hot[0]
		if s.zipf != nil {
			q = s.g.hot[s.zipf.Uint64()]
		}
		return &request{class: c, method: "POST", path: "/search/overlap",
			body: s.searchBody(q, ojspK, false), combos: []combo{q}}
	case classCJSP:
		q := s.fresh()
		return &request{class: c, method: "POST", path: "/search/coverage",
			body: s.searchBody(q, cjspK, true), combos: []combo{q}}
	case classBatch:
		r := &request{class: c, method: "POST", path: "/search/batch"}
		buf := append(s.buf[:0], `{"queries":[`...)
		for i := 0; i < batchSize; i++ {
			q := s.fresh()
			r.combos = append(r.combos, q)
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = s.g.appendSearch(buf, q, ojspK, false)
		}
		buf = append(buf, "]}"...)
		s.buf = buf
		r.body = append([]byte(nil), buf...)
		return r
	default:
		return &request{class: classMutate}
	}
}

func (s *stream) searchBody(q combo, k int, coverage bool) []byte {
	s.buf = s.g.appendSearch(s.buf[:0], q, k, coverage)
	return append([]byte(nil), s.buf...)
}

// points returns the combo's translated points.
func (g *generator) points(q combo) []geo.Point {
	b := g.bases[q.base]
	ox, oy := float64(q.dx)*g.grid.CellW, float64(q.dy)*g.grid.CellH
	out := make([]geo.Point, len(b.pts))
	for i, p := range b.pts {
		out[i] = geo.Point{X: p.X + ox, Y: p.Y + oy}
	}
	return out
}

// cells returns the combo's cell set under the federation's grid: what
// the gateway makes of the request's points.
func (g *generator) cells(q combo) cellset.Set { return cellset.FromPoints(g.grid, g.points(q)) }

// appendSearch appends one gateway.SearchRequest as JSON. Floats use the
// shortest form that parses back to the same float64, so the gateway
// grids exactly the points the oracle does.
func (g *generator) appendSearch(buf []byte, q combo, k int, coverage bool) []byte {
	b := g.bases[q.base]
	ox, oy := float64(q.dx)*g.grid.CellW, float64(q.dy)*g.grid.CellH
	buf = append(buf, `{"points":[`...)
	for i, p := range b.pts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		buf = strconv.AppendFloat(buf, p.X+ox, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.Y+oy, 'g', -1, 64)
		buf = append(buf, ']')
	}
	buf = append(buf, `],"k":`...)
	buf = strconv.AppendInt(buf, int64(k), 10)
	if coverage {
		buf = append(buf, `,"delta":`...)
		buf = strconv.AppendFloat(buf, cjspDelta, 'g', -1, 64)
	}
	return append(buf, '}')
}

// mutation returns trace entry i as an HTTP request.
func (g *generator) mutation(i int) (*request, error) {
	if i >= len(g.trace) {
		return nil, fmt.Errorf("mutation trace of %d entries exhausted", len(g.trace))
	}
	m := g.trace[i]
	if m.Op == workload.MutDelete {
		return &request{class: classMutate, method: "DELETE",
			path: "/ingest/dataset?source=" + m.Source + "&id=" + strconv.Itoa(m.ID)}, nil
	}
	body, err := json.Marshal(gateway.IngestRequest{Source: m.Source, ID: m.ID, Name: m.Name, Points: m.Points})
	if err != nil {
		return nil, err
	}
	return &request{class: classMutate, method: "POST", path: "/ingest/dataset", body: body}, nil
}

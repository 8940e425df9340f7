// Package core is the public facade of the DITS library: it wires the grid
// partition, the DITS indexes, the OJSP/CJSP search algorithms, and the
// multi-source federation behind two entry points.
//
//   - Engine answers joinable searches over a single data source.
//   - Federation coordinates many autonomous sources through a data
//     center, with real communication accounting.
//
// Queries are plain point sets; results identify datasets by ID and name.
package core

import (
	"context"
	"fmt"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
	"dits/internal/search/overlap"
	"dits/internal/transport"
)

// Config controls index construction. The zero value selects the paper's
// defaults (Table II): resolution θ=12 and leaf capacity f=30.
type Config struct {
	// Theta is the grid resolution: the space is cut into 2^θ × 2^θ cells.
	Theta int
	// LeafCapacity is f, the maximum datasets per DITS-L leaf.
	LeafCapacity int
	// Bounds optionally fixes the gridded space. When empty, the source's
	// own bounding rectangle is used. Federations must set Bounds so all
	// sources share one grid.
	Bounds geo.Rect
}

func (c Config) withDefaults() Config {
	if c.Theta == 0 {
		c.Theta = 12
	}
	if c.LeafCapacity == 0 {
		c.LeafCapacity = 30
	}
	return c
}

// Result is one joinable dataset: for overlap search, Score is
// |S_Q ∩ S_D|; for coverage search, the marginal coverage gain at pick
// time.
type Result struct {
	Source string // empty for single-source engines
	ID     int
	Name   string
	Score  int
}

// CoverageOutcome is the result of a coverage joinable search.
type CoverageOutcome struct {
	Results       []Result
	Coverage      int // cells covered by query ∪ picked datasets
	QueryCoverage int // cells covered by the query alone
}

// Engine answers OJSP and CJSP over a single data source.
type Engine struct {
	grid  geo.Grid
	index *dits.Local
}

// NewEngine grids and indexes the source.
func NewEngine(src *dataset.Source, cfg Config) (*Engine, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil source")
	}
	cfg = cfg.withDefaults()
	bounds := cfg.Bounds
	if boundsUnset(bounds) {
		bounds = src.Bounds()
	}
	g := geo.NewGrid(cfg.Theta, bounds)
	return &Engine{grid: g, index: dits.Build(g, src.Nodes(g), cfg.LeafCapacity)}, nil
}

// boundsUnset treats the zero rectangle (a dimensionless point at the
// origin) and truly empty rectangles as "no bounds configured".
func boundsUnset(r geo.Rect) bool {
	return r.IsEmpty() || r == geo.Rect{}
}

// Grid exposes the engine's grid, e.g. to interpret cell counts as areas.
func (e *Engine) Grid() geo.Grid { return e.grid }

// NumDatasets returns the number of indexed datasets.
func (e *Engine) NumDatasets() int { return e.index.Len() }

// queryNode converts raw points into a query dataset node.
func (e *Engine) queryNode(query []geo.Point) *dataset.Node {
	return dataset.NewNodeFromCells(-1, "query", cellset.FromPoints(e.grid, query))
}

// OverlapSearch returns the k datasets with the largest spatial overlap
// with the query points (OJSP), using OverlapSearch/Algorithm 2.
func (e *Engine) OverlapSearch(query []geo.Point, k int) []Result {
	q := e.queryNode(query)
	if q == nil {
		return nil
	}
	s := &overlap.DITSSearcher{Index: e.index}
	return convertOverlap(s.TopK(q, k))
}

// CoverageSearch returns up to k datasets maximizing joint coverage with
// the query under connectivity threshold delta, in cell units (CJSP),
// using CoverageSearch/Algorithm 3.
func (e *Engine) CoverageSearch(query []geo.Point, delta float64, k int) CoverageOutcome {
	q := e.queryNode(query)
	if q == nil {
		return CoverageOutcome{}
	}
	s := &coverage.DITSSearcher{Index: e.index}
	res := s.Search(q, delta, k)
	out := CoverageOutcome{Coverage: res.Coverage, QueryCoverage: res.QueryCoverage}
	covered := q.Cells
	for _, nd := range res.Picked {
		gain := covered.MarginalGain(nd.Cells)
		covered = covered.Union(nd.Cells)
		out.Results = append(out.Results, Result{ID: nd.ID, Name: nd.Name, Score: gain})
	}
	return out
}

// Insert adds a dataset to the live index.
func (e *Engine) Insert(d *dataset.Dataset) error {
	nd := dataset.NewNode(e.grid, d)
	if nd == nil {
		return fmt.Errorf("core: dataset %d has no points", d.ID)
	}
	return e.index.Insert(nd)
}

// Update replaces a dataset in the live index.
func (e *Engine) Update(d *dataset.Dataset) error {
	nd := dataset.NewNode(e.grid, d)
	if nd == nil {
		return fmt.Errorf("core: dataset %d has no points", d.ID)
	}
	return e.index.Update(nd)
}

// Delete removes a dataset from the live index.
func (e *Engine) Delete(id int) error { return e.index.Delete(id) }

func convertOverlap(rs []overlap.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: r.ID, Name: r.Name, Score: r.Overlap}
	}
	return out
}

// Federation coordinates joinable search across multiple autonomous
// sources through an in-process data center. All sources share the grid
// defined by Config.Bounds and Config.Theta.
type Federation struct {
	grid    geo.Grid
	center  *federation.Center
	servers []*federation.SourceServer
}

// NewFederation builds one SourceServer per source and registers them with
// a data center. Config.Bounds must cover all sources; when empty, the
// union of all source bounds is used.
func NewFederation(sources []*dataset.Source, cfg Config) (*Federation, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: federation needs at least one source")
	}
	cfg = cfg.withDefaults()
	bounds := cfg.Bounds
	if boundsUnset(bounds) {
		bounds = geo.EmptyRect
		for _, s := range sources {
			bounds = bounds.Union(s.Bounds())
		}
	}
	g := geo.NewGrid(cfg.Theta, bounds)
	center := federation.NewCenter(g, federation.DefaultOptions())
	f := &Federation{grid: g, center: center}
	for _, src := range sources {
		idx := dits.Build(g, src.Nodes(g), cfg.LeafCapacity)
		srv := federation.NewSourceServerWithGrid(src.Name, idx)
		f.servers = append(f.servers, srv)
		center.Register(srv.Summary(), &transport.InProc{
			Name: src.Name, Handler: srv.Handler(), Metrics: center.Metrics,
		})
	}
	return f, nil
}

// Grid exposes the federation's shared grid.
func (f *Federation) Grid() geo.Grid { return f.grid }

// Metrics exposes the communication counters of the data center.
func (f *Federation) Metrics() *transport.Metrics { return f.center.Metrics }

// OverlapSearch answers the multi-source OJSP.
func (f *Federation) OverlapSearch(query []geo.Point, k int) ([]Result, error) {
	cells := cellset.FromPoints(f.grid, query)
	rs, err := f.center.OverlapSearch(context.Background(), cells, k)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{Source: r.Source, ID: r.ID, Name: r.Name, Score: r.Overlap}
	}
	return out, nil
}

// CoverageSearch answers the multi-source CJSP.
func (f *Federation) CoverageSearch(query []geo.Point, delta float64, k int) (CoverageOutcome, error) {
	cells := cellset.FromPoints(f.grid, query)
	res, err := f.center.CoverageSearch(context.Background(), cells, delta, k)
	if err != nil {
		return CoverageOutcome{}, err
	}
	out := CoverageOutcome{Coverage: res.Coverage, QueryCoverage: res.QueryCoverage}
	for _, r := range res.Picked {
		out.Results = append(out.Results, Result{Source: r.Source, ID: r.ID, Name: r.Name, Score: r.Overlap})
	}
	return out, nil
}

// Package core is the single-source facade of the DITS library that the
// examples use: Engine wires the grid partition, the DITS-L index and the
// OJSP/CJSP search algorithms behind one entry point. Many sources are
// federated by internal/federation.
//
// Queries are plain point sets; results identify datasets by ID and name.
package core

import (
	"fmt"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
	"dits/internal/search/overlap"
)

// Config controls index construction. The zero value selects the paper's
// defaults (Table II): resolution θ=12 and leaf capacity f=30.
type Config struct {
	// Theta is the grid resolution: the space is cut into 2^θ × 2^θ cells.
	Theta int
	// LeafCapacity is f, the maximum datasets per DITS-L leaf.
	LeafCapacity int
	// Bounds optionally fixes the gridded space. When empty, the source's
	// own bounding rectangle is used.
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
	ID    int
	Name  string
	Score int
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
	// The zero rectangle (a dimensionless point at the origin) and truly
	// empty rectangles mean "no bounds configured".
	bounds := cfg.Bounds
	if bounds.IsEmpty() || bounds == (geo.Rect{}) {
		bounds = src.Bounds()
	}
	g := geo.NewGrid(cfg.Theta, bounds)
	return &Engine{grid: g, index: dits.Build(g, src.Nodes(g), cfg.LeafCapacity)}, nil
}

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

func convertOverlap(rs []overlap.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: r.ID, Name: r.Name, Score: r.Overlap}
	}
	return out
}

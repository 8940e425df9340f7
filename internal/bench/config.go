package bench

import (
	"fmt"
	"sync"
	"time"

	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/workload"
)

// Config sets the workload scale and the default parameters (Table II;
// defaults underlined there: k=10, q=10, θ=12, δ=10, f=30).
type Config struct {
	Scale     float64 // multiple of Table I dataset counts to generate
	Seed      int64
	Theta     int
	K         int
	Q         int
	Delta     float64
	F         int
	Bandwidth float64 // bytes/second the transmission-time figures divide by

	// OverlapScale overrides Scale for the OJSP figures (9-12): the
	// index/inverted crossover the paper reports needs thousands of
	// datasets per source, which the cheap overlap searches can afford
	// even when the quadratic CJSP baselines cannot. Zero means Scale.
	OverlapScale float64

	// CoverageSources limits the CJSP figures to these sources (SG, the
	// paper's slowest baseline, is quadratic; Transit is the paper's
	// motivating source and the cheapest). Empty means all five.
	CoverageSources []string
}

// DefaultConfig returns the scaled-down defaults used by ditsbench and the
// Go benchmarks.
func DefaultConfig() Config {
	return Config{
		Scale:           0.02,
		Seed:            1,
		Theta:           12,
		K:               10,
		Q:               10,
		Delta:           10,
		F:               30,
		Bandwidth:       125_000, // 1 Mbit/s, as a transmission-time model
		OverlapScale:    0.5,
		CoverageSources: []string{"Transit", "Baidu"},
	}
}

// overlapCfg returns cfg with Scale swapped for the OJSP figures.
func overlapCfg(cfg Config) Config {
	if cfg.OverlapScale > 0 {
		cfg.Scale = cfg.OverlapScale
	}
	return cfg
}

// Params are the swept values of Table II.
var (
	ParamK     = []int{10, 20, 30, 40, 50}
	ParamQ     = []int{10, 20, 30, 40, 50}
	ParamTheta = []int{10, 11, 12, 13, 14}
	ParamDelta = []float64{0, 5, 10, 15, 20}
	ParamF     = []int{10, 20, 30, 40, 50}
	ParamBeta  = []int{100, 150, 200, 250, 300} // update batch sizes (Figs. 21-22)
)

// sourceData is one generated source gridded at a resolution.
type sourceData struct {
	spec  workload.Spec
	src   *dataset.Source
	grid  geo.Grid
	nodes []*dataset.Node
}

// sourceCache memoizes generated sources and their gridded nodes, so a
// ditsbench run regenerating many figures does not regenerate the workload
// per figure.
type sourceCache struct {
	mu     sync.Mutex
	srcs   map[string]*dataset.Source
	gr     map[string][]*dataset.Node
	grGrid map[string]geo.Grid
}

var cache = &sourceCache{
	srcs:   make(map[string]*dataset.Source),
	gr:     make(map[string][]*dataset.Node),
	grGrid: make(map[string]geo.Grid),
}

func (c *sourceCache) source(spec workload.Spec, cfg Config) *dataset.Source {
	key := fmt.Sprintf("%s/%g/%d", spec.Name, cfg.Scale, cfg.Seed)
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.srcs[key]; ok {
		return s
	}
	s := workload.Generate(spec, cfg.Scale, cfg.Seed)
	c.srcs[key] = s
	return s
}

func (c *sourceCache) gridded(spec workload.Spec, cfg Config, theta int) sourceData {
	src := c.source(spec, cfg)
	key := fmt.Sprintf("%s/%g/%d/%d", spec.Name, cfg.Scale, cfg.Seed, theta)
	c.mu.Lock()
	defer c.mu.Unlock()
	if nodes, ok := c.gr[key]; ok {
		return sourceData{spec: spec, src: src, grid: c.grGrid[key], nodes: nodes}
	}
	g := geo.NewGrid(theta, src.Bounds())
	nodes := src.Nodes(g)
	c.gr[key] = nodes
	c.grGrid[key] = g
	return sourceData{spec: spec, src: src, grid: g, nodes: nodes}
}

// coverageSpecs returns the specs used by the CJSP figures.
func coverageSpecs(cfg Config) []workload.Spec {
	if len(cfg.CoverageSources) == 0 {
		return workload.Specs()
	}
	var out []workload.Spec
	for _, name := range cfg.CoverageSources {
		if sp, err := workload.SpecByName(name); err == nil {
			out = append(out, sp)
		}
	}
	return out
}

// queries samples q query nodes from a gridded source.
func queries(sd sourceData, q int, seed int64) []*dataset.Node {
	ds := workload.SampleQueries(sd.src, q, seed)
	out := make([]*dataset.Node, 0, len(ds))
	for _, d := range ds {
		nd := dataset.NewNode(sd.grid, d)
		if nd != nil {
			nd = &dataset.Node{
				ID: -1, Name: "query", Rect: nd.Rect, O: nd.O, R: nd.R,
				Cells: nd.Cells, Compact: nd.Compact,
			}
			out = append(out, nd)
		}
	}
	return out
}

// timeIt measures fn's wall-clock time in milliseconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

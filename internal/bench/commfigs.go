package bench

import (
	"context"
	"fmt"

	"dits/internal/cellset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/transport"
	"dits/internal/workload"
)

// commVariants model the query-distribution strategies: the paper's
// OverlapSearch/CoverageSearch use both (global filter + clipping); the
// four baselines broadcast the entire query to every source. The two
// intermediate rows are an ablation of the individual strategies.
var commVariants = []struct {
	name string
	opts federation.Options
}{
	{"DITS (filter+clip)", federation.Options{GlobalFilter: true, ClipQuery: true}},
	{"filter only", federation.Options{GlobalFilter: true, ClipQuery: false}},
	{"clip only", federation.Options{GlobalFilter: false, ClipQuery: true}},
	{"baselines (broadcast)", federation.Options{GlobalFilter: false, ClipQuery: false}},
}

// buildSourceServers indexes the five workload sources under one shared
// world grid — the raw material every federation experiment wires into its
// own centers.
func buildSourceServers(cfg Config) ([]*federation.SourceServer, geo.Grid, []sourceData) {
	// Shared world grid covering all sources.
	world := geo.EmptyRect
	var sds []sourceData
	for _, spec := range workload.Specs() {
		src := cache.source(spec, cfg)
		world = world.Union(src.Bounds())
		sds = append(sds, sourceData{spec: spec, src: src})
	}
	g := geo.NewGrid(cfg.Theta, world)
	var servers []*federation.SourceServer
	for i := range sds {
		sds[i].grid = g
		sds[i].nodes = sds[i].src.Nodes(g)
		idx := dits.Build(g, sds[i].nodes, cfg.F)
		servers = append(servers, federation.NewSourceServerWithGrid(sds[i].spec.Name, idx))
	}
	return servers, g, sds
}

// newFederation wires the servers into a fresh center with the given
// options over in-process peers.
func newFederation(g geo.Grid, servers []*federation.SourceServer, opts federation.Options) *federation.Center {
	c := federation.NewCenter(g, opts)
	for _, srv := range servers {
		c.Register(srv.Summary(), &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: c.Metrics})
	}
	return c
}

// buildFederations creates one federation of all five sources per variant,
// sharing the per-source DITS-L indexes.
func buildFederations(cfg Config) ([]*federation.Center, geo.Grid, []sourceData) {
	servers, g, sds := buildSourceServers(cfg)
	var centers []*federation.Center
	for _, v := range commVariants {
		centers = append(centers, newFederation(g, servers, v.opts))
	}
	return centers, g, sds
}

// federationQueries samples queries across all sources under the world
// grid.
func federationQueries(sds []sourceData, g geo.Grid, q int, seed int64) []cellset.Set {
	var out []cellset.Set
	perSource := q / len(sds)
	if perSource == 0 {
		perSource = 1
	}
	for _, sd := range sds {
		for _, d := range workload.SampleQueries(sd.src, perSource, seed) {
			out = append(out, cellset.FromPoints(g, d.Points))
			if len(out) == q {
				return out
			}
		}
	}
	return out
}

// commFigure runs all query-distribution variants for increasing q and
// reports bytes transferred and the transmission time derived from them.
func commFigure(cfg Config, idBytes, idTime, title string,
	run func(c *federation.Center, qs []cellset.Set)) []Table {
	bytesTable := Table{
		ID:     idBytes,
		Title:  title + ": communication cost (bytes) vs q",
		Header: []string{"q"},
		Notes: []string{
			"Paper shape: the DITS strategies transmit the fewest bytes; broadcast the most.",
		},
	}
	timeTable := Table{
		ID:     idTime,
		Title:  fmt.Sprintf("%s: transmission time (ms at %.0f B/s) vs q", title, cfg.Bandwidth),
		Header: []string{"q"},
		Notes: []string{
			"Transmission time = bytes / bandwidth (§VII-C2), so it tracks the bytes figure.",
		},
	}
	for _, v := range commVariants {
		bytesTable.Header = append(bytesTable.Header, v.name)
		timeTable.Header = append(timeTable.Header, v.name)
	}
	centers, g, sds := buildFederations(cfg)
	for _, q := range ParamQ {
		qs := federationQueries(sds, g, q, cfg.Seed)
		brow := []string{itoa(q)}
		trow := []string{itoa(q)}
		for i := range commVariants {
			c := centers[i]
			c.Metrics.Reset()
			run(c, qs)
			brow = append(brow, i64toa(c.Metrics.Bytes()))
			trow = append(trow, ms(float64(c.Metrics.TransmissionTime(cfg.Bandwidth).Nanoseconds())/1e6))
		}
		bytesTable.Rows = append(bytesTable.Rows, brow)
		timeTable.Rows = append(timeTable.Rows, trow)
	}
	return []Table{bytesTable, timeTable}
}

// Fig13And14 regenerates the OJSP communication cost (Fig. 13) and
// transmission time (Fig. 14) as q increases.
func Fig13And14(cfg Config) []Table {
	return commFigure(cfg, "fig13", "fig14", "OJSP",
		func(c *federation.Center, qs []cellset.Set) {
			for _, q := range qs {
				if _, err := c.OverlapSearch(context.Background(), q, cfg.K); err != nil {
					panic(err)
				}
			}
		})
}

// Fig19And20 regenerates the CJSP communication cost (Fig. 19) and
// transmission time (Fig. 20) as q increases.
func Fig19And20(cfg Config) []Table {
	return commFigure(cfg, "fig19", "fig20", "CJSP",
		func(c *federation.Center, qs []cellset.Set) {
			for _, q := range qs {
				if _, err := c.CoverageSearch(context.Background(), q, cfg.Delta, cfg.K); err != nil {
					panic(err)
				}
			}
		})
}

// Command ditsquery runs one-shot overlap and coverage joinable searches,
// either against an in-process federation built from a datagen directory,
// or against running ditsserve sources over TCP.
//
// Usage:
//
//	datagen -out data
//	ditsquery -data data -mode overlap -query Transit:5 -k 10
//	ditsquery -data data -mode coverage -query Baidu:0 -k 5 -delta 10
//	ditsquery -data data -remote 127.0.0.1:7101,127.0.0.1:7102 \
//	          -bounds=-180,-90,180,90 -mode overlap -query Transit:5
//
// The query is 'Source:index': the points of that dataset become the query
// point set, mirroring the paper's query sampling. In -remote mode, -data
// is still used to resolve the query dataset, and -bounds/-theta must
// match the running sources. For a long-lived HTTP front-end over the same
// sources, see ditsgate.
package main

import (
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dits/internal/cellset"
	"dits/internal/core"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/transport"
)

func main() {
	dataDir := flag.String("data", "data", "directory of datagen .gob sources (query datasets come from here)")
	remote := flag.String("remote", "", "comma-separated ditsserve addresses; empty = in-process federation of -data")
	mode := flag.String("mode", "overlap", "overlap or coverage")
	query := flag.String("query", "", "query dataset as Source:index (e.g. Transit:5)")
	k := flag.Int("k", 10, "number of results")
	delta := flag.Float64("delta", 10, "connectivity threshold δ in cells (coverage mode)")
	theta := flag.Int("theta", 12, "grid resolution θ")
	boundsFlag := flag.String("bounds", "", "shared world bounds minX,minY,maxX,maxY (remote mode; default: union of -data sources)")
	flag.Parse()

	sources, err := loadSources(*dataDir)
	if err != nil {
		fail(err)
	}
	if len(sources) == 0 {
		fail(fmt.Errorf("no .gob sources in %s (run datagen first)", *dataDir))
	}
	qPoints, qLabel, err := resolveQuery(sources, *query)
	if err != nil {
		fail(err)
	}

	var run searchRunner
	if *remote != "" {
		run, err = dialRemote(*remote, sources, *theta, *boundsFlag)
	} else {
		run, err = localFederation(sources, *theta)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("query %s (%d points)\n\n", qLabel, len(qPoints))

	switch *mode {
	case "overlap":
		rs, err := run.overlap(qPoints, *k)
		if err != nil {
			fail(err)
		}
		fmt.Printf("top-%d overlap joinable datasets:\n", *k)
		for i, r := range rs {
			fmt.Printf("%2d. %-10s %-16s overlap=%d cells\n", i+1, r.Source, r.Name, r.Score)
		}
	case "coverage":
		res, err := run.coverage(qPoints, *delta, *k)
		if err != nil {
			fail(err)
		}
		fmt.Printf("coverage joinable search (δ=%g): query covers %d cells\n", *delta, res.QueryCoverage)
		for i, r := range res.Results {
			fmt.Printf("%2d. %-10s %-16s gain=+%d cells\n", i+1, r.Source, r.Name, r.Score)
		}
		fmt.Printf("total coverage: %d cells (%.1fx the query alone)\n",
			res.Coverage, float64(res.Coverage)/float64(max(res.QueryCoverage, 1)))
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
	fmt.Printf("\ncommunication: %d messages, %d bytes\n",
		run.metrics().Messages(), run.metrics().Bytes())
}

// searchRunner abstracts the local in-process federation and the remote
// (ditsserve) deployment behind the two searches.
type searchRunner struct {
	overlap  func(pts []geo.Point, k int) ([]core.Result, error)
	coverage func(pts []geo.Point, delta float64, k int) (core.CoverageOutcome, error)
	metrics  func() *transport.Metrics
}

func localFederation(sources []*dataset.Source, theta int) (searchRunner, error) {
	fed, err := core.NewFederation(sources, core.Config{Theta: theta})
	if err != nil {
		return searchRunner{}, err
	}
	fmt.Printf("in-process federation: %d sources\n", len(sources))
	return searchRunner{
		overlap:  fed.OverlapSearch,
		coverage: fed.CoverageSearch,
		metrics:  fed.Metrics,
	}, nil
}

func dialRemote(addrs string, sources []*dataset.Source, theta int, boundsFlag string) (searchRunner, error) {
	bounds := geo.EmptyRect
	if boundsFlag != "" {
		var err error
		if bounds, err = geo.ParseRect(boundsFlag); err != nil {
			return searchRunner{}, err
		}
	} else {
		for _, s := range sources {
			bounds = bounds.Union(s.Bounds())
		}
	}
	grid := geo.NewGrid(theta, bounds)
	center := federation.NewCenter(grid, federation.DefaultOptions())
	for _, addr := range strings.Split(addrs, ",") {
		// A pool, not one connection: a CJSP's last round closes idle
		// sessions beside its own calls, so one query may call a source
		// from two goroutines at once.
		peer := transport.DialPool(addr, strings.TrimSpace(addr), 2, center.Metrics)
		summary, err := center.RegisterRemote(context.Background(), peer)
		if err != nil {
			return searchRunner{}, err
		}
		fmt.Printf("registered remote source %q at %s\n", summary.Name, addr)
	}
	return searchRunner{
		overlap: func(pts []geo.Point, k int) ([]core.Result, error) {
			rs, err := center.OverlapSearch(context.Background(), cellset.FromPoints(grid, pts), k)
			if err != nil {
				return nil, err
			}
			out := make([]core.Result, len(rs))
			for i, r := range rs {
				out[i] = core.Result{Source: r.Source, ID: r.ID, Name: r.Name, Score: r.Overlap}
			}
			return out, nil
		},
		coverage: func(pts []geo.Point, delta float64, k int) (core.CoverageOutcome, error) {
			res, err := center.CoverageSearch(context.Background(), cellset.FromPoints(grid, pts), delta, k)
			if err != nil {
				return core.CoverageOutcome{}, err
			}
			out := core.CoverageOutcome{Coverage: res.Coverage, QueryCoverage: res.QueryCoverage}
			for _, r := range res.Picked {
				out.Results = append(out.Results, core.Result{Source: r.Source, ID: r.ID, Name: r.Name, Score: r.Overlap})
			}
			return out, nil
		},
		metrics: func() *transport.Metrics { return center.Metrics },
	}, nil
}

func loadSources(dir string) ([]*dataset.Source, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil {
		return nil, err
	}
	var out []*dataset.Source
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		var src dataset.Source
		err = gob.NewDecoder(f).Decode(&src)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", p, err)
		}
		out = append(out, &src)
	}
	return out, nil
}

func resolveQuery(sources []*dataset.Source, q string) ([]geo.Point, string, error) {
	if q == "" {
		src := sources[0]
		d := src.Datasets[0]
		return d.Points, src.Name + ":0 (default)", nil
	}
	name, idxStr, ok := strings.Cut(q, ":")
	if !ok {
		return nil, "", fmt.Errorf("query must be Source:index, got %q", q)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil {
		return nil, "", fmt.Errorf("bad query index %q: %w", idxStr, err)
	}
	for _, src := range sources {
		if src.Name != name {
			continue
		}
		if idx < 0 || idx >= len(src.Datasets) {
			return nil, "", fmt.Errorf("source %s has %d datasets, index %d out of range",
				name, len(src.Datasets), idx)
		}
		return src.Datasets[idx].Points, q, nil
	}
	return nil, "", fmt.Errorf("unknown source %q", name)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ditsquery:", err)
	os.Exit(1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

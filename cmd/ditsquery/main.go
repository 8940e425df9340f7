// Command ditsquery runs one-shot overlap and coverage joinable searches
// through one data center (federation.Center), either over the sources of
// a datagen directory served in-process, or over running ditsserve
// sources over TCP.
//
// Usage:
//
//	datagen -out data
//	ditsquery -data data -mode overlap -query Transit:5 -k 10
//	ditsquery -data data -mode coverage -query Baidu:0 -k 5 -delta 10
//	ditsquery -data data -remote 127.0.0.1:7101,127.0.0.1:7102 \
//	          -mode overlap -query Transit:5
//
// The query is 'Source:id': the cells of that dataset in the source's
// .dsnap file under -data become the query cell set, mirroring the
// paper's query sampling. The center runs on that file's grid, and refuses
// a source on any other. In -remote mode -data only supplies the query.
// For a long-lived HTTP front-end over the same sources, see ditsgate.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dits/internal/cellset"
	"dits/internal/federation"
	"dits/internal/index/dits"
	"dits/internal/index/ditsfile"
	"dits/internal/transport"
)

func main() {
	dataDir := flag.String("data", "data", "directory of datagen .dsnap sources (query datasets come from here)")
	remote := flag.String("remote", "", "comma-separated ditsserve addresses; empty = in-process federation of -data")
	mode := flag.String("mode", "overlap", "overlap or coverage")
	query := flag.String("query", "", "query dataset as Source:id (e.g. Transit:5)")
	k := flag.Int("k", 10, "number of results")
	delta := flag.Float64("delta", 10, "connectivity threshold δ in cells (coverage mode)")
	flag.Parse()

	paths, err := filepath.Glob(filepath.Join(*dataDir, "*.dsnap"))
	if err != nil {
		fail(err)
	}
	if len(paths) == 0 {
		fail(fmt.Errorf("no .dsnap sources in %s (run datagen first)", *dataDir))
	}
	indexes := make(map[string]*dits.Local, len(paths))
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = strings.TrimSuffix(filepath.Base(p), ".dsnap")
		if indexes[names[i]], err = ditsfile.LoadHeap(p); err != nil {
			fail(fmt.Errorf("load %s: %w", p, err))
		}
	}
	if *query == "" {
		*query = names[0] + ":0"
	}
	qSource, qCells, err := resolveQuery(indexes, *query)
	if err != nil {
		fail(err)
	}

	ctx := context.Background()
	center := federation.NewCenter(indexes[qSource].Grid, federation.DefaultOptions())
	if *remote != "" {
		for _, addr := range strings.Split(*remote, ",") {
			addr = strings.TrimSpace(addr)
			// A pool, not one connection: a CJSP's last round closes idle
			// sessions beside its own calls, so one query may call a source
			// from two goroutines at once.
			peer := transport.DialPool(addr, addr, 2, center.Metrics)
			summary, err := center.RegisterRemote(ctx, peer)
			if err != nil {
				fail(err)
			}
			fmt.Printf("registered remote source %q at %s\n", summary.Name, addr)
		}
	} else {
		for _, name := range names {
			srv := federation.NewSourceServerWithGrid(name, indexes[name])
			peer := &transport.InProc{Name: name, Handler: srv.Handler(), Metrics: center.Metrics}
			if _, err := center.RegisterRemote(ctx, peer); err != nil {
				fail(err)
			}
		}
		fmt.Printf("in-process federation: %d sources\n", len(names))
	}
	fmt.Printf("query %s (%d cells)\n\n", *query, qCells.Len())

	switch *mode {
	case "overlap":
		rs, err := center.OverlapSearch(ctx, qCells, *k)
		if err != nil {
			fail(err)
		}
		fmt.Printf("top-%d overlap joinable datasets:\n", *k)
		for i, r := range rs {
			fmt.Printf("%2d. %-10s %-16s overlap=%d cells\n", i+1, r.Source, r.Name, r.Overlap)
		}
	case "coverage":
		res, err := center.CoverageSearch(ctx, qCells, *delta, *k)
		if err != nil {
			fail(err)
		}
		fmt.Printf("coverage joinable search (δ=%g): query covers %d cells\n", *delta, res.QueryCoverage)
		for i, r := range res.Picked {
			fmt.Printf("%2d. %-10s %-16s gain=+%d cells\n", i+1, r.Source, r.Name, r.Overlap)
		}
		fmt.Printf("total coverage: %d cells (%.1fx the query alone)\n",
			res.Coverage, float64(res.Coverage)/float64(max(res.QueryCoverage, 1)))
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
	fmt.Printf("\ncommunication: %d messages, %d bytes\n",
		center.Metrics.Messages(), center.Metrics.Bytes())
}

// resolveQuery returns the source and the cells of the query Source:id.
func resolveQuery(indexes map[string]*dits.Local, q string) (string, cellset.Set, error) {
	name, idStr, ok := strings.Cut(q, ":")
	if !ok {
		return "", nil, fmt.Errorf("query must be Source:id, got %q", q)
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return "", nil, fmt.Errorf("bad query id %q: %w", idStr, err)
	}
	idx, ok := indexes[name]
	if !ok {
		return "", nil, fmt.Errorf("unknown source %q", name)
	}
	nd := idx.Get(id)
	if nd == nil {
		return "", nil, fmt.Errorf("source %s has no dataset %d", name, id)
	}
	return name, nd.FlatCells(), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ditsquery:", err)
	os.Exit(1)
}

// Federated search over real TCP: three autonomous data sources serve
// their DITS-L indexes on loopback sockets; a data center builds DITS-G
// from their uploaded summaries and runs both joinable searches, reporting
// the communication cost the query-distribution strategies save.
//
//	go run ./examples/federated
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/transport"
	"dits/internal/workload"
)

func main() {
	// Three sources sharing one world grid (the federation requirement).
	specs := []string{"Transit", "Baidu", "NYU"}
	world := geo.EmptyRect
	var sources []*workloadSource
	for i, name := range specs {
		spec, err := workload.SpecByName(name)
		if err != nil {
			log.Fatal(err)
		}
		src := workload.Generate(spec, 0.02, int64(10+i))
		world = world.Union(src.Bounds())
		sources = append(sources, &workloadSource{name: name, src: src})
	}
	grid := geo.NewGrid(12, world)

	// Each source runs its own TCP server.
	for _, s := range sources {
		idx := dits.Build(grid, s.src.Nodes(grid), 30)
		s.server = federation.NewSourceServerWithGrid(s.name, idx)
		srv, err := transport.Serve("127.0.0.1:0", s.server.Handler())
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		s.addr = srv.Addr()
		// The ephemeral port changes per run; keep the printed output
		// stable (and quotable in docs) by not echoing it.
		fmt.Printf("source %-8s serving %4d datasets on a loopback TCP socket\n", s.name, idx.Len())
	}

	// The data center dials each source and registers its summary.
	center := federation.NewCenter(grid, federation.DefaultOptions())
	for _, s := range sources {
		peer := transport.DialPool(s.name, s.addr, 2, center.Metrics)
		defer peer.Close()
		center.Register(s.server.Summary(), peer)
	}

	// Query: one transit route, as cells under the shared grid.
	query := cellset.FromPoints(grid, sources[0].src.Datasets[2].Points)
	fmt.Printf("\nquery covers %d cells\n", query.Len())

	rs, err := center.OverlapSearch(context.Background(), query, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfederated overlap joinable search (k=5):")
	for i, r := range rs {
		fmt.Printf("  %d. [%s] %-16s overlap=%d\n", i+1, r.Source, r.Name, r.Overlap)
	}
	fmt.Printf("communication: %d messages, %d bytes\n",
		center.Metrics.Messages(), center.Metrics.Bytes())

	center.Metrics.Reset()
	cov, err := center.CoverageSearch(context.Background(), query, 10, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfederated coverage joinable search (k=5, δ=10):")
	for i, r := range cov.Picked {
		fmt.Printf("  %d. [%s] %-16s gain=+%d\n", i+1, r.Source, r.Name, r.Overlap)
	}
	fmt.Printf("coverage: %d cells (query alone %d)\n", cov.Coverage, cov.QueryCoverage)
	fmt.Printf("communication: %d messages, %d bytes\n",
		center.Metrics.Messages(), center.Metrics.Bytes())

	// Per-method breakdown. PerMethod returns a map, whose iteration
	// order varies run to run — print it sorted so the output is stable.
	per := center.Metrics.PerMethod()
	methods := make([]string, 0, len(per))
	for m := range per {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		st := per[m]
		fmt.Printf("  %-15s %2d calls, %5d B sent, %5d B received\n",
			m, st.Calls, st.BytesSent, st.BytesReceived)
	}

	// Show what the distribution strategies buy: the same overlap search
	// with broadcast-everything shipping.
	naive := federation.NewCenter(grid, federation.Options{})
	for _, s := range sources {
		peer := transport.DialPool(s.name, s.addr, 2, naive.Metrics)
		defer peer.Close()
		naive.Register(s.server.Summary(), peer)
	}
	if _, err := naive.OverlapSearch(context.Background(), query, 5); err != nil {
		log.Fatal(err)
	}
	center.Metrics.Reset()
	if _, err := center.OverlapSearch(context.Background(), query, 5); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery distribution strategies: %d bytes vs %d bytes broadcast\n",
		center.Metrics.Bytes(), naive.Metrics.Bytes())
}

type workloadSource struct {
	name   string
	src    *dataset.Source
	server *federation.SourceServer
	addr   string
}

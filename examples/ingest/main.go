// Live ingestion end to end: a mutable source backed by a WAL-durable
// store serves a federation; mutations stream in through the data
// center (the same path the gateway's POST /ingest/dataset takes), query
// answers change accordingly with the result cache invalidated by data
// version, and a restart recovers the exact post-mutation state from
// snapshot + WAL.
//
//	go run ./examples/ingest
//
// The output is deterministic run to run.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"reflect"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/transport"
	"dits/internal/workload"
)

func main() {
	// Durable state lives in a scratch directory; a real deployment
	// passes -wal-dir to ditsserve instead.
	stateDir, err := os.MkdirTemp("", "dits-ingest-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)

	// One Transit-shaped source under its own grid.
	spec, err := workload.SpecByName("Transit")
	if err != nil {
		log.Fatal(err)
	}
	src := workload.Generate(spec, 0.02, 7)
	grid := geo.NewGrid(12, src.Bounds())

	store, err := ingest.Open(stateDir, ingest.Options{
		Fsync:         ingest.FsyncAlways,
		SnapshotEvery: 64,
		Bootstrap: func() (*dits.Local, error) {
			return dits.Build(grid, src.Nodes(grid), 30), nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	server := federation.NewSourceServerWithGrid(src.Name, store.Index())
	server.EnableIngest(store)
	fmt.Printf("source %s: %d datasets indexed, durable store open (fsync=always)\n",
		src.Name, store.Index().Len())

	center := federation.NewCenter(grid, federation.DefaultOptions())
	center.SetCache(cache.New(256))
	center.Register(server.Summary(), &transport.InProc{
		Name: src.Name, Handler: server.Handler(), Metrics: center.Metrics,
	})

	// The query: one transit route's cells.
	query := cellset.FromPoints(grid, src.Datasets[2].Points)
	fmt.Printf("query covers %d cells\n\n", query.Len())

	show := func(label string) []federation.SourceResult {
		rs, err := center.OverlapSearch(context.Background(), query, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (k=5):\n", label)
		for i, r := range rs {
			fmt.Printf("  %d. %-24s overlap=%d\n", i+1, r.Name, r.Overlap)
		}
		return rs
	}
	show("overlap search before ingest")

	// Stream a reproducible mutation trace through the center — the same
	// generator the benchmark's mixed-rw workload draws its upserts from.
	trace := workload.GenerateTrace([]*dataset.Source{src}, 80, 99)
	var puts, deletes, skipped int
	for _, m := range trace {
		if m.Op == workload.MutDelete {
			res, err := center.DeleteDataset(context.Background(), m.Source, m.ID)
			if err != nil {
				log.Fatal(err)
			}
			if res.Found {
				deletes++
			} else {
				skipped++
			}
			continue
		}
		pts := make([]geo.Point, len(m.Points))
		for i, p := range m.Points {
			pts[i] = geo.Point{X: p[0], Y: p[1]}
		}
		cells := cellset.FromPoints(grid, pts)
		if cells.IsEmpty() {
			skipped++
			continue
		}
		if _, err := center.PutDataset(context.Background(), m.Source, m.ID, m.Name, cells); err != nil {
			log.Fatal(err)
		}
		puts++
	}
	fmt.Printf("\nstreamed %d mutations (%d puts, %d deletes, %d skipped)\n",
		len(trace), puts, deletes, skipped)
	fmt.Printf("source data version %d; cache invalidations %d\n\n",
		center.SourceVersions()[src.Name], center.CacheInvalidations())

	after := show("overlap search after ingest")

	// Restart: close everything, recover from snapshot + WAL tail, and
	// verify the recovered federation answers identically.
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	recovered, err := ingest.Open(stateDir, ingest.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	// The snapshot/WAL split varies with background-compaction timing
	// (st.Replayed says how many records the snapshot had not absorbed);
	// the recovered version and answers never do.
	st := recovered.Stats()
	fmt.Printf("\nrestart: recovered version %d from snapshot + WAL tail\n", st.Version)

	server2 := federation.NewSourceServerWithGrid(src.Name, recovered.Index())
	server2.EnableIngest(recovered)
	center2 := federation.NewCenter(grid, federation.DefaultOptions())
	center2.Register(server2.Summary(), &transport.InProc{Name: src.Name, Handler: server2.Handler()})
	rs2, err := center2.OverlapSearch(context.Background(), query, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-restart results identical: %v\n", reflect.DeepEqual(after, rs2))
}

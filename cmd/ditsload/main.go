// Command ditsload is an operator's load generator for a live deployment:
// it drives mixed OJSP/CJSP/batch/ingest traffic at a running ditsgate in
// open-loop (paced arrivals, coordinated-omission-corrected latencies) or
// closed-loop (N back-to-back clients) mode and reports throughput,
// latency quantiles (p50/p99/p999), and error/shed rates.
//
// Usage:
//
//	ditsload -target http://127.0.0.1:8080 -mode closed -clients 16 -duration 30s
//	ditsload -target http://127.0.0.1:8080 -mode open -rate 500 -duration 1m \
//	         -mix overlap=70,coverage=15,batch=10,ingest=5 -ingest-source Transit
//
// Its queries are -points point blobs at random world positions, so most
// of them touch no data: they exercise the front door (admission, decode,
// shed, failover), not search cost. Dataset-shaped queries and every
// performance number come from the repo's benchmark (benchmark/README.md).
// With -json the machine-readable result is printed instead of the human
// summary. See docs/OPERATIONS.md for the runbook.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dits/internal/load"
)

func main() {
	target := flag.String("target", "", "gateway base URL, e.g. http://127.0.0.1:8080")
	mode := flag.String("mode", "closed", "load mode: open (paced arrivals) or closed (back-to-back clients)")
	rate := flag.Float64("rate", 100, "open-loop arrival rate in req/s")
	clients := flag.Int("clients", 8, "closed-loop concurrent clients")
	duration := flag.Duration("duration", 10*time.Second, "how long to offer load")
	mixFlag := flag.String("mix", "", "traffic mix, e.g. overlap=70,coverage=15,batch=10,ingest=5 (default: built-in blend)")
	k := flag.Int("k", 10, "max k per generated query (each draws k in [1,k])")
	delta := flag.Float64("delta", 10, "connectivity threshold δ for coverage queries")
	points := flag.Int("points", 16, "points per generated query — a tight blob at a random world position: front-door load (admission, decode, shed), not search cost")
	batchSize := flag.Int("batch", 8, "queries per generated batch request")
	ingestSource := flag.String("ingest-source", "", "source name for ingest upserts ('' drops ingest from the mix)")
	seed := flag.Int64("seed", 1, "traffic seed (reproducible runs)")
	clientID := flag.String("client-id", "ditsload", "X-Client-ID header prefix ('' sends none)")
	jsonOut := flag.Bool("json", false, "print the machine-readable JSON result")
	flag.Parse()

	opts := load.Options{
		Target:         *target,
		Mode:           *mode,
		Rate:           *rate,
		Clients:        *clients,
		Duration:       *duration,
		K:              *k,
		Delta:          *delta,
		PointsPerQuery: *points,
		BatchSize:      *batchSize,
		IngestSource:   *ingestSource,
		Seed:           *seed,
		ClientID:       *clientID,
	}
	if *mixFlag != "" {
		m, err := load.ParseMix(*mixFlag)
		if err != nil {
			fail(err)
		}
		opts.Mix = m
	}

	if opts.Target == "" {
		fail(fmt.Errorf("-target is required"))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	res, err := load.Run(ctx, opts)
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
		return
	}
	printResult(res)
	// A run that only ever errored is a failed run; shed traffic is not
	// (shedding is the gateway working as configured).
	if res.OK == 0 && res.Sent > 0 {
		fail(fmt.Errorf("no request succeeded (%d sent)", res.Sent))
	}
}

func printResult(r load.Result) {
	if r.Mode == "open" {
		fmt.Printf("open loop @ %.0f req/s for %.1fs\n", r.Rate, r.Seconds)
	} else {
		fmt.Printf("closed loop @ %d clients for %.1fs\n", r.Clients, r.Seconds)
	}
	fmt.Printf("  sent %d  ok %d  shed %d  4xx %d  5xx %d  net %d\n",
		r.Sent, r.OK, r.Shed, r.ClientErrors, r.ServerErrors, r.NetErrors)
	fmt.Printf("  throughput %.1f ok/s   shed rate %.2f%%   error rate %.2f%%\n",
		r.Throughput, 100*r.ShedRate, 100*r.ErrorRate)
	fmt.Printf("  latency ms: p50 %.2f  p99 %.2f  p999 %.2f  max %.2f  mean %.2f\n",
		r.P50Ms, r.P99Ms, r.P999Ms, r.MaxMs, r.MeanMs)
	for _, op := range []string{"overlap", "coverage", "batch", "ingest"} {
		c, ok := r.PerOp[op]
		if !ok || c.Sent == 0 {
			continue
		}
		fmt.Printf("  %-8s sent %-6d ok %-6d shed %-5d err %d\n", op, c.Sent, c.OK, c.Shed, c.Err)
	}
	if len(r.Slowest) > 0 {
		fmt.Printf("  slowest requests (GET /debug/traces/{id} for the span tree):\n")
		for _, s := range r.Slowest {
			fmt.Printf("    %8.2fms  %-8s %d  trace %s\n", s.Ms, s.Op, s.Status, s.TraceID)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ditsload:", err)
	os.Exit(1)
}

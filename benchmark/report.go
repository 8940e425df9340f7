package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// benchmarkJSON renders BENCHMARK.json from the tables in spec.go, so the
// contract file and the program cannot drift apart (a test compares them).
func benchmarkJSON(runSeconds int) string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return string(b)
}

// column collects one end-to-end metric over a set of runs.
func column(rs []*runResult, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.EndToEnd[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// printSpread prints, per end-to-end metric, the median and quartiles of
// a set of runs and the inter-quartile spread next to the metric's bound.
func printSpread(w io.Writer, rs []*runResult) {
	if len(rs) == 0 || rs[0].EndToEnd == nil {
		return
	}
	fmt.Fprintf(w, "\n== %s  %d runs, seeds %d..%d\n", rs[0].Workload, len(rs), rs[0].Stamp.Seed, rs[len(rs)-1].Stamp.Seed)
	fmt.Fprintf(w, "   %-24s %12s %12s %12s %9s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, d := range endToEnd {
		xs := column(rs, d.Name)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "   %-24s %12.4f %12.4f %12.4f %8.2f%% %6.0f%%  %s\n",
			d.Name, q1, median(xs), q3, 100*spread(xs), 100*d.Bound, d.Unit)
	}
}

// agree compares the end-to-end medians of two sets of runs of the same
// binary and reports whether every one of them stayed within its bound.
func agree(w io.Writer, a, b []*runResult) bool {
	ok := true
	fmt.Fprintf(w, "\n== %s  selfcheck: two sets of %d runs\n", a[0].Workload, len(a))
	for _, d := range endToEnd {
		ma, mb := median(column(a, d.Name)), median(column(b, d.Name))
		diff := 0.0
		if ma != 0 {
			diff = (mb - ma) / ma
		}
		verdict := "ok"
		if diff > d.Bound || diff < -d.Bound {
			verdict, ok = "DISAGREE", false
		}
		fmt.Fprintf(w, "   %-24s %12.4f %12.4f %+8.2f%% (bound %.0f%%) %s\n", d.Name, ma, mb, 100*diff, 100*d.Bound, verdict)
	}
	return ok
}

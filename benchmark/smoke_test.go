package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload end to end at scale 0.01 with
// sub-second windows: real TCP stack, both windows, kernel pass, answer
// check before and after. It checks function, not speed.
func TestSmokeAllWorkloads(t *testing.T) {
	win := windows{warm: 100 * time.Millisecond, timed: 300 * time.Millisecond, traced: 900 * time.Millisecond}
	for _, spec := range workloads {
		spec.scale, spec.setups = 0.01, 1
		t.Run(spec.name, func(t *testing.T) {
			res, err := runOnce(context.Background(), runConfig{spec: spec, seed: 1, win: win, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
			}
			for _, d := range endToEnd {
				if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive number", d.Name, v)
				}
			}
			known := make(map[string]bool)
			for _, d := range perLayer {
				known[d.Name] = true
			}
			for name := range res.PerLayer {
				if !known[name] {
					t.Errorf("per-layer metric %s is not declared in spec.go", name)
				}
			}
			hit := res.PerLayer["cache.hit_ratio"]
			if spec.hasClass(classOJSPHot) != (hit > 0) {
				t.Errorf("cache.hit_ratio = %v on %s", hit, spec.name)
			}
			// Every layer the workload exercises produced its number.
			want := []string{"gateway.self_ms_p50", "exec.overlap_us_p50", "cellset.intersect_ns", "ingest.put_us_p50", "ditsfile.write_ms", "dits.nodes"}
			if spec.hasClass(classCJSP) && !spec.cluster {
				want = append(want, "source.serve_ms_p50.coverage.round", "transport.wire_ms_p50.coverage.round", "federation.rounds_per_cjsp")
			}
			if spec.hasClass(classOJSP) {
				want = append(want, "source.serve_ms_p50.overlap.search", "federation.fanout_per_ojsp")
			}
			if spec.hasClass(classMutate) {
				want = append(want, "load.ingest_p50_ms", "source.serve_ms_p50.dataset.put", "cache.invalidations")
			}
			if spec.cluster {
				want = append(want, "federation.cluster_hop_ms_p50", "federation.center_self_ms_p50")
			}
			for _, name := range want {
				if res.PerLayer[name] <= 0 {
					t.Errorf("per-layer metric %s = %v, want a positive number", name, res.PerLayer[name])
				}
			}
			var doc traceDoc
			b, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if doc.Requests == 0 || len(doc.Sample) == 0 || doc.StrayPct >= 1 {
				t.Fatalf("trace file: %d requests, %d sampled, %.2f%% stray", doc.Requests, len(doc.Sample), doc.StrayPct)
			}
			for _, r := range doc.Sample {
				sum := 0.0
				for _, v := range r.SelfUs {
					sum += v
				}
				if diff := sum - r.RootUs; diff > r.RootUs/100 || diff < -r.RootUs/100 {
					t.Fatalf("request %s: self times sum to %.1f us, root span is %.1f us", r.Trace, sum, r.RootUs)
				}
			}
			// The one-line result parses and carries exactly the declared metrics.
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(driverJSON(res)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("result line: correct=%v attempted=%d with %d metrics, want true, %d, %d",
					line.Correct, line.Attempted, len(line.Metrics), res.Attempted, len(endToEnd)+len(perLayer))
			}
		})
	}
}

// BENCHMARK.json at the repo root is generated from spec.go; this keeps a
// hand edit of either from going unnoticed.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if got := benchmarkJSON(doc.RunSeconds); strings.TrimSpace(string(b)) != got {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -emit-benchmark-json -seconds %d`", doc.RunSeconds)
	}
}

// The contract's limits on names, units and counts.
func TestSpecWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q unit %q: bad or duplicate", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range perLayer {
		check(d)
	}
	if !setup || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("setup_s present %v, %d end-to-end, %d per-layer, %d workloads", setup, len(endToEnd), len(perLayer), len(workloads))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(w.why))
		}
		seen[w.name] = true
		total := 0.0
		for _, sh := range w.mix {
			total += sh.p
		}
		if total < 0.999 || total > 1.001 || !w.hasClass(w.primary) {
			t.Errorf("workload %q: mix sums to %v, primary class in mix: %v", w.name, total, w.hasClass(w.primary))
		}
	}
}

// Command benchmark is the repo's performance instrument: it stands up the
// real gateway -> center (or cluster) -> source stack over loopback TCP in
// this one process, drives it from a seeded generator, checks the answers
// against an oracle and prints every metric by name. See README.md.
//
//	go run ./benchmark -workload ojsp-large -seed 1
//	go run ./benchmark -workload all -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// stamp says what produced a number. Every output carries one.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	WarmS      float64 `json:"warm_s"`
	TimedS     float64 `json:"timed_s"`
	TracedS    float64 `json:"traced_s"`
}

func newStamp(seed int64, w windows) stamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				commit = s.Value[:12]
			}
		}
	}
	return stamp{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: numClients(), Seed: seed,
		WarmS: w.warm.Seconds(), TimedS: w.timed.Seconds(), TracedS: w.traced.Seconds(),
	}
}

// lateLimitMs voids an open-loop run whose dispatcher woke up this late at
// p99. It is Go's preemption quantum: a dispatcher later than that was not
// waiting for a timer, it was starved of a processor.
const lateLimitMs = 10

// warmUp is the discarded stretch of load before the first window.
const warmUp = 3 * time.Second

// overheadMinSamples is the size of the smaller of the two sets
// bench.trace_overhead_pct compares below which the figure is noise.
const overheadMinSamples = 200

// runConfig is one run's settings.
type runConfig struct {
	spec   workloadSpec
	seed   int64
	win    windows // a zero timed or traced window skips that phase
	outDir string
}

// runResult is one run's outcome.
type runResult struct {
	Workload  string
	Stamp     stamp
	Attempted int
	Failed    int
	EndToEnd  map[string]float64 // nil when the run had no timed window
	PerLayer  map[string]float64 // nil when the run had no traced window
	Samples   map[string]int     // per timing: how many requests it summarizes
	Tails     map[string]float64 // per class: which percentile its ptail is
	Errors    []string
	TraceFile string
}

func (r *runResult) note(errs ...string) {
	r.Failed += len(errs)
	for _, e := range errs {
		if len(r.Errors) < 16 {
			r.Errors = append(r.Errors, e)
		}
	}
}

// runOnce performs one run: repeated set-up, answer check, warm-up, the
// timed window with the wrappers off, the traced window with them on, the
// kernel pass, and the answer check again on the state the run left.
func runOnce(ctx context.Context, cfg runConfig) (*runResult, error) {
	spec := cfg.spec
	res := &runResult{Workload: spec.name, Stamp: newStamp(cfg.seed, cfg.win),
		Samples: map[string]int{}, Tails: map[string]float64{}}
	cp := newCorpus(spec.scale)
	gen := newGenerator(spec, cp, cfg.seed)
	rec := newRecorder()
	stateDir := filepath.Join(cfg.outDir, fmt.Sprintf("state-%d", os.Getpid()))
	defer os.RemoveAll(stateDir)

	// Set-up is timed several times over and the median reported: one
	// build of a stack is too few samples to gate on.
	setups := spec.setups
	if cfg.win.timed == 0 {
		setups = 1 // setup_s is an end-to-end metric; a traced-only run does not report it
	}
	var st *stack
	var setupS []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, fmt.Errorf("close stack: %w", err)
			}
			runtime.GC()
		}
		t := time.Now()
		var err error
		if st, err = newStack(spec, cp, rec, filepath.Join(stateDir, fmt.Sprint(i))); err != nil {
			return nil, fmt.Errorf("set up %s: %w", spec.name, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer st.Close()
	// Drop the discarded stacks' memory so rss_mb is the serving stack's.
	debug.FreeOSMemory()

	l := newLoader(st, gen)
	defer l.close()
	or := newOracle(st)
	checks := gen.stream(streamCheck)
	n, errs := l.check(ctx, or, checks)
	res.Attempted += n
	res.note(errs...)

	count := func(p *phaseResult) {
		res.Attempted += p.sent
		res.note(p.errs...)
		res.Failed += p.failed - len(p.errs) // note counted the listed ones
	}
	count(l.run(cfg.win.warm, false))

	var timed *phaseResult
	if cfg.win.timed > 0 {
		timed = l.run(cfg.win.timed, false)
		count(timed)
		res.EndToEnd = endToEndMetrics(spec, timed, median(setupS))
		for _, name := range timingNames {
			if n := len(timed.byName(name)); n > 0 {
				res.Samples[name+"_untraced"] = n
			}
		}
	}

	if cfg.win.traced > 0 {
		m := make(map[string]float64, len(perLayer))
		res.PerLayer = m
		traced := l.run(cfg.win.traced, true)
		spans := rec.take()
		count(traced)
		loadMetrics(spec, traced, m, res)
		ks := gen.stream(streamKernel)
		rec.set(recAll)
		backendSelf := directBackendSelf(ctx, st, gen, ks, spec.primary, 64, min(cfg.win.traced, 2*time.Second))
		rec.set(recOff)
		doc, err := analyze(st, spans, traced, backendSelf, m)
		if err != nil {
			res.note(err.Error())
		}
		doc.Seed, doc.Stamp = cfg.seed, res.Stamp
		if res.TraceFile, err = writeTrace(cfg.outDir, doc); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		m["transport.pool_dials"] = float64(st.poolDials())
		if err := kernelPass(ctx, st, gen, ks, filepath.Join(stateDir, "kernel"), m); err != nil {
			return nil, fmt.Errorf("kernel pass: %w", err)
		}
		m["proc.goroutines_end"] = float64(runtime.NumGoroutine())
	}

	// The no-repeat workloads must never have hit the result cache, or
	// their numbers are not what their names say.
	if cs, _ := st.cacheStats(); cs.Hits > 0 && !spec.hasClass(classOJSPHot) {
		res.note(fmt.Sprintf("%d result-cache hits on a workload that never repeats a query", cs.Hits))
	}

	or.apply(gen.trace[:l.mutNext])
	n, errs = l.check(ctx, or, checks)
	res.Attempted += n
	res.note(errs...)
	return res, st.Close()
}

// endToEndMetrics computes the gated metrics from the timed window.
func endToEndMetrics(spec workloadSpec, p *phaseResult, setupS float64) map[string]float64 {
	lat := p.byName(reportName[spec.primary])
	ok, searches := float64(max(p.ok(), 1)), float64(max(p.searches(), 1))
	return map[string]float64{
		"setup_s":              setupS,
		"qps":                  float64(p.ok()) / p.elapsed.Seconds(),
		"search_p50_ms":        percentile(lat, 50),
		"comm_bytes_per_query": float64(p.bytes) / searches,
		"comm_msgs_per_query":  float64(p.msgs) / searches,
		"cpu_ms_per_query":     float64(p.cpu) / 1e6 / ok,
		"rss_mb":               p.rssKiB / 1024,
	}
}

// loadMetrics fills in the generator's, the cache's and the process's
// per-layer metrics from the traced window, and the tracing overhead from
// its recorded and untouched requests.
func loadMetrics(spec workloadSpec, traced *phaseResult, m map[string]float64, res *runResult) {
	m["load.sent"] = float64(traced.sent)
	m["load.fail_share"] = float64(traced.failed) / float64(max(traced.sent, 1))
	m["load.late_p99_ms"] = percentile(sortedCopy(traced.late), 99)
	m["load.gen_cpu_share"] = float64(traced.genNs) / float64(max(traced.cpu, 1))
	for _, name := range timingNames {
		lat := traced.byName(name)
		if len(lat) == 0 {
			continue
		}
		res.Samples[name] = len(lat)
		m["load."+name+"_p50_ms"] = percentile(lat, 50)
		if name != "batch" {
			m["load."+name+"_p90_ms"] = percentile(lat, 90)
		}
		res.Tails[name], m["load."+name+"_ptail_ms"] = tailPercentile(lat)
	}
	if look := traced.hits + traced.misses; look > 0 {
		m["cache.hit_ratio"] = float64(traced.hits) / float64(look)
	}
	m["cache.invalidations"] = float64(traced.invalid)
	ok := float64(max(traced.ok(), 1))
	m["proc.alloc_kb_per_query"] = float64(traced.allocBytes) / 1024 / ok
	m["proc.gc_pause_ms_total"] = float64(traced.gcPauseNs) / 1e6
	primary := reportName[spec.primary]
	on, off := mergeByName(&traced.latOn, primary), mergeByName(&traced.latOff, primary)
	res.Samples["overhead_traced"], res.Samples["overhead_untraced"] = len(on), len(off)
	if base := trimmedMean(off); base > 0 {
		m["bench.trace_overhead_pct"] = 100 * (trimmedMean(on) - base) / base
	}
}

// driverJSON is the one-line result the acceptance pipeline parses.
func driverJSON(res *runResult) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val)
	if res.EndToEnd != nil {
		for _, d := range endToEnd {
			metrics[d.Name] = val{res.EndToEnd[d.Name], d.Unit}
		}
	}
	if res.PerLayer != nil {
		for _, d := range perLayer {
			metrics[d.Name] = val{res.PerLayer[d.Name], d.Unit}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	return string(b)
}

// printTable writes the human-readable report of one run.
func printTable(w io.Writer, res *runResult) {
	s := res.Stamp
	fmt.Fprintf(w, "\n== %s  seed=%d  commit=%s  %s  num_cpu=%d  GOMAXPROCS=%d  clients=%d  windows warm/timed/traced=%gs/%gs/%gs\n",
		res.Workload, s.Seed, s.Commit, s.GoVersion, s.NumCPU, s.GOMAXPROCS, s.Clients, s.WarmS, s.TimedS, s.TracedS)
	fmt.Fprintf(w, "   attempted=%d failed=%d", res.Attempted, res.Failed)
	for name, n := range res.Samples {
		fmt.Fprintf(w, "  n(%s)=%d", name, n)
	}
	fmt.Fprintln(w)
	row := func(d metricDef, v float64, extra string) {
		fmt.Fprintf(w, "   %-44s %14.4f %-7s%s\n", d.Name, v, d.Unit, extra)
	}
	if res.EndToEnd != nil {
		fmt.Fprintln(w, "   -- end to end (timed window, wrappers off)")
		for _, d := range endToEnd {
			row(d, res.EndToEnd[d.Name], fmt.Sprintf(" bound %g%%", d.Bound*100))
		}
	}
	if res.PerLayer != nil {
		fmt.Fprintln(w, "   -- per layer (traced window + kernel pass; 0 = layer not exercised by this workload)")
		for _, d := range perLayer {
			extra := ""
			if cls, ok := strings.CutSuffix(strings.TrimPrefix(d.Name, "load."), "_ptail_ms"); ok && res.Tails[cls] > 0 {
				extra = fmt.Sprintf(" p%g of n=%d", res.Tails[cls], res.Samples[cls])
			}
			row(d, res.PerLayer[d.Name], extra)
		}
		fmt.Fprintf(w, "   trace written to %s\n", res.TraceFile)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   ERROR %s\n", e)
	}
	if v, ok := res.PerLayer["load.late_p99_ms"]; ok && v >= lateLimitMs {
		fmt.Fprintf(w, "   WARNING load.late_p99_ms %.2f >= %d ms: the open-loop schedule was not kept, this run is void\n", v, lateLimitMs)
	}
	if v, ok := res.PerLayer["bench.trace_overhead_pct"]; ok && v >= 5 {
		// A difference between two sets of requests of differing cost
		// cannot resolve 5 % from a few dozen of them (cjsp-small).
		if n := min(res.Samples["overhead_traced"], res.Samples["overhead_untraced"]); n < overheadMinSamples {
			fmt.Fprintf(w, "   NOTE bench.trace_overhead_pct %.1f rests on only %d untouched requests: too few to tell it from 0\n", v, n)
		} else {
			fmt.Fprintf(w, "   WARNING bench.trace_overhead_pct %.1f >= 5: the per-layer numbers of this run are void\n", v)
		}
	}
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "seed of the request generator")
		seconds   = flag.Float64("seconds", 30, "length of the timed window")
		trace     = flag.String("trace", "both", "0: timed window only, end-to-end metrics; 1: traced window and kernel pass, per-layer metrics; both")
		runs      = flag.Int("runs", 1, "repeat each workload on seeds seed..seed+runs-1 and print median and quartiles per metric")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of -runs 3 and fail if an end-to-end median moves by more than its bound")
		smoke     = flag.Bool("smoke", false, "scale 0.01 and 1 s windows: a functional check, not a measurement")
		outDir    = flag.String("out", "benchmark/out", "directory for traces and scratch state")
		emitSpec  = flag.Bool("emit-benchmark-json", false, "print BENCHMARK.json as this program defines it and exit")
	)
	flag.Parse()
	if *emitSpec {
		fmt.Println(benchmarkJSON(int(*seconds)))
		return
	}
	var specs []workloadSpec
	if *workload == "all" {
		specs = slices.Clone(workloads)
	} else if w, ok := workloadByName(*workload); ok {
		specs = []workloadSpec{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	win := windows{warm: warmUp}
	switch *trace {
	case "0":
		win.timed = sec(*seconds)
	case "1":
		win.traced = sec(*seconds)
	case "both":
		win.timed, win.traced = sec(*seconds), sec(*seconds/2)
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace must be 0, 1 or both\n")
		os.Exit(2)
	}
	if *smoke {
		win = windows{warm: 200 * time.Millisecond, timed: time.Second, traced: 1500 * time.Millisecond}
		for i := range specs {
			specs[i].scale, specs[i].setups = 0.01, 1
		}
	}
	if *selfcheck {
		*runs = 3
	}

	ctx := context.Background()
	failed := false
	var last *runResult
	for _, spec := range specs {
		var sets [][]*runResult
		for set := 0; set < 1 || (*selfcheck && set < 2); set++ {
			var rs []*runResult
			for i := 0; i < *runs; i++ {
				res, err := runOnce(ctx, runConfig{spec: spec, seed: *seed + int64(i), win: win, outDir: *outDir})
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					os.Exit(1)
				}
				printTable(os.Stdout, res)
				failed = failed || res.Failed > 0
				rs, last = append(rs, res), res
				debug.FreeOSMemory()
			}
			sets = append(sets, rs)
			if *runs > 1 {
				printSpread(os.Stdout, rs)
			}
		}
		if *selfcheck && !agree(os.Stdout, sets[0], sets[1]) {
			failed = true
		}
	}
	// The last line is the machine-readable result of the last run.
	fmt.Println(driverJSON(last))
	if failed {
		os.Exit(1)
	}
}

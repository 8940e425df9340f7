// Command ditsbench regenerates the tables and figures of the paper's
// evaluation (§VII) on the synthetic five-source workload.
//
// Usage:
//
//	ditsbench -exp fig9                # one experiment
//	ditsbench -exp all -scale 0.05     # everything, bigger workload
//	ditsbench -exp fig13 -csv out/     # also write CSV files
//
// Performance is measured by the repo's benchmark, not here: see
// benchmark/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dits/internal/bench"
)

func main() {
	cfg := bench.DefaultConfig()
	exp := flag.String("exp", "all", "experiment id (table1, table2, fig7..fig22, ablation) or 'all'")
	csvDir := flag.String("csv", "", "directory to also write CSV files into")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Float64Var(&cfg.Scale, "scale", cfg.Scale, "workload scale as a multiple of Table I sizes")
	flag.Float64Var(&cfg.OverlapScale, "overlapscale", cfg.OverlapScale,
		"workload scale for the OJSP figures 9-12 (0 = same as -scale)")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "workload seed")
	flag.IntVar(&cfg.Theta, "theta", cfg.Theta, "default grid resolution θ")
	flag.IntVar(&cfg.K, "k", cfg.K, "default number of results k")
	flag.IntVar(&cfg.Q, "q", cfg.Q, "default number of queries q")
	flag.Float64Var(&cfg.Delta, "delta", cfg.Delta, "default connectivity threshold δ")
	flag.IntVar(&cfg.F, "f", cfg.F, "default leaf capacity f")
	covSrc := flag.String("coverage-sources", strings.Join(cfg.CoverageSources, ","),
		"comma-separated sources for the CJSP figures ('' = all five)")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	cfg.CoverageSources = nil
	if *covSrc != "" {
		cfg.CoverageSources = strings.Split(*covSrc, ",")
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = nil
		seen := map[string]bool{"fig14": true, "fig20": true} // emitted with 13/19
		for _, e := range bench.All() {
			if !seen[e.ID] {
				seen[e.ID] = true
				ids = append(ids, e.ID)
			}
		}
	}

	for _, id := range ids {
		start := time.Now()
		tables, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func writeCSV(dir string, t bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := t.ID + "_" + sanitize(t.Title) + ".csv"
	return os.WriteFile(filepath.Join(dir, name), []byte(t.CSV()), 0o644)
}

func sanitize(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			b.WriteByte('_')
		}
	}
	name := b.String()
	if len(name) > 60 {
		name = name[:60]
	}
	return name
}

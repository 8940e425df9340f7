// Command datagen generates the synthetic five-source workload (the
// stand-in for the paper's Table I portals) and persists each source as a
// gob file that ditsquery and downstream tools can load.
//
// Usage:
//
//	datagen -out data/ -scale 0.05 -seed 1
package main

import (
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dits/internal/workload"
)

func main() {
	out := flag.String("out", "data", "output directory")
	scale := flag.Float64("scale", 0.02, "dataset-count scale as a multiple of the paper's Table I (values > 1 grow past it)")
	seed := flag.Int64("seed", 1, "generation seed")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sources := workload.GenerateAll(*scale, *seed)
	for _, src := range sources {
		path := filepath.Join(*out, src.Name+".gob")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := gob.NewEncoder(f).Encode(src); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st := src.ComputeStats()
		fmt.Printf("%-8s %6d datasets %9d points -> %s\n",
			src.Name, st.NumDatasets, st.NumPoints, path)
	}
}

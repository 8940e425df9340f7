// Command datagen generates the synthetic five-source workload (the
// stand-in for the paper's Table I portals), grids every source on one
// shared θ-grid, builds its DITS-L index and writes it as a dsnap/2
// snapshot, <out>/<Name>.dsnap. The file carries the grid (θ, origin and
// cell size) and the leaf capacity f, so ditsserve -source and ditsquery
// -data read the federation's grid from the files and no other tool is
// told it again.
//
// Usage:
//
//	datagen -out data/ -scale 0.05 -seed 1 -theta 12 -bounds=-180,-90,180,90
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/index/ditsfile"
	"dits/internal/workload"
)

func main() {
	out := flag.String("out", "data", "output directory")
	scale := flag.Float64("scale", 0.02, "dataset-count scale as a multiple of the paper's Table I (values > 1 grow past it)")
	seed := flag.Int64("seed", 1, "generation seed")
	theta := flag.Int("theta", 12, "grid resolution θ shared by every source")
	boundsFlag := flag.String("bounds", "-180,-90,180,90", "world bounds minX,minY,maxX,maxY of the grid shared by every source")
	flag.Parse()

	bounds, err := geo.ParseRect(*boundsFlag)
	if err != nil {
		fail(err)
	}
	if *theta < 1 || *theta > geo.MaxTheta {
		fail(fmt.Errorf("-theta %d outside [1, %d]", *theta, geo.MaxTheta))
	}
	grid := geo.NewGrid(*theta, bounds)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	for _, src := range workload.GenerateAll(*scale, *seed) {
		path := filepath.Join(*out, src.Name+".dsnap")
		idx := dits.Build(grid, src.Nodes(grid), dits.DefaultLeafCapacity)
		if err := ditsfile.WriteFile(path, idx); err != nil {
			fail(err)
		}
		st := src.ComputeStats()
		fmt.Printf("%-8s %6d datasets %9d points -> %s\n",
			src.Name, st.NumDatasets, st.NumPoints, path)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}

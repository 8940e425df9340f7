package dataset

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dits/internal/geo"
)

// Source is a spatial data source (Definition 3): an autonomous collection
// of spatial datasets. Each source may pick its own grid resolution; the
// global index reconciles them through latitude/longitude space (§V-B).
type Source struct {
	Name     string
	Datasets []*Dataset
}

// NumDatasets returns n, the number of datasets in the source.
func (s *Source) NumDatasets() int { return len(s.Datasets) }

// NumPoints returns the total number of points across all datasets.
func (s *Source) NumPoints() int {
	total := 0
	for _, d := range s.Datasets {
		total += len(d.Points)
	}
	return total
}

// Bounds returns the MBR, in raw coordinates, of all points in the source.
func (s *Source) Bounds() geo.Rect {
	r := geo.EmptyRect
	for _, d := range s.Datasets {
		r = r.Union(d.MBR())
	}
	return r
}

// nodesBlock is how many consecutive datasets a gridding goroutine claims
// at a time.
const nodesBlock = 16

// Nodes converts every non-empty dataset into a dataset node under grid g,
// preserving dataset order. The datasets are gridded on GOMAXPROCS
// goroutines, each claiming blocks of consecutive datasets in turn; every
// node is built independently, so the result does not depend on their
// number.
func (s *Source) Nodes(g geo.Grid) []*Node {
	nodes := make([]*Node, len(s.Datasets))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), (len(nodes)+nodesBlock-1)/nodesBlock) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(nodesBlock)) - nodesBlock
				if lo >= len(nodes) {
					return
				}
				for i := lo; i < min(lo+nodesBlock, len(nodes)); i++ {
					nodes[i] = NewNode(g, s.Datasets[i])
				}
			}
		}()
	}
	wg.Wait()
	return slices.DeleteFunc(nodes, func(n *Node) bool { return n == nil })
}

// Stats summarizes a source the way Table I of the paper does.
type Stats struct {
	Name        string
	NumDatasets int
	NumPoints   int
	Bounds      geo.Rect
	MinSize     int // smallest dataset (points)
	MaxSize     int // largest dataset (points)
}

// ComputeStats returns the Table I row for the source.
func (s *Source) ComputeStats() Stats {
	st := Stats{
		Name:        s.Name,
		NumDatasets: len(s.Datasets),
		NumPoints:   s.NumPoints(),
		Bounds:      s.Bounds(),
	}
	if len(s.Datasets) > 0 {
		st.MinSize = s.Datasets[0].Size()
	}
	for _, d := range s.Datasets {
		if d.Size() < st.MinSize {
			st.MinSize = d.Size()
		}
		if d.Size() > st.MaxSize {
			st.MaxSize = d.Size()
		}
	}
	return st
}

// String implements fmt.Stringer.
func (st Stats) String() string {
	return fmt.Sprintf("%s: %d datasets, %d points, bounds %v",
		st.Name, st.NumDatasets, st.NumPoints, st.Bounds)
}

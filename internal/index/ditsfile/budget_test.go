package ditsfile

import (
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/overlap"
	"dits/internal/workload"
)

// vmRSS reads the process's resident set from /proc/self/status. Zero
// means unavailable (non-Linux).
func vmRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}

// TestMMapServesUnderBudget builds the Transit source at a quarter of its
// Table I size, writes the snapshot, releases the heap index, and answers
// queries from the mapped file under a 256 MiB soft memory limit: answers
// must equal the heap index's cold and warm, a leaf the walk pruned must
// not be materialized and a touched one loads once, and (Linux) the
// resident set must stay under the budget while serving.
func TestMMapServesUnderBudget(t *testing.T) {
	const (
		budget = 256 << 20
		k      = 10
	)
	spec, err := workload.SpecByName("Transit")
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Generate(spec, 0.25, 1)
	grid := geo.NewGrid(12, src.Bounds())
	heap := dits.Build(grid, src.Nodes(grid), 30)
	var queries []*dataset.Node
	for _, d := range workload.SampleQueries(src, 10, 123) {
		if q := dataset.NewNodeFromCells(-1, "query", cellset.FromPoints(grid, d.Points)); q != nil {
			queries = append(queries, q)
		}
	}
	if len(queries) == 0 {
		t.Fatal("no query gridded to a cell")
	}
	hs := &overlap.DITSSearcher{Index: heap}
	want := make([][]overlap.Result, len(queries))
	for i, q := range queries {
		want[i] = hs.TopK(q, k)
	}
	heapBytes := heap.MemoryBytes()
	leaves := 0
	heap.Root.VisitLeaves(func(*dits.TreeNode) { leaves++ })
	path := writeSnap(t, heap)

	// Only the query nodes and the expected answers survive; freed pages
	// go back to the OS so the resident set measures serving, not the build.
	src, heap, hs = nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()

	defer debug.SetMemoryLimit(debug.SetMemoryLimit(budget))
	r, err := Open(path, Options{MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if loads := r.LeafLoads(); loads != 0 {
		t.Fatalf("Open materialized %d leaves; only the skeleton is eager", loads)
	}
	fs := &overlap.DITSSearcher{Index: r.Index()}
	var peak, coldLoads int64
	for _, pass := range []string{"cold", "warm", "warm"} {
		for i, q := range queries {
			if got := fs.TopK(q, k); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s query %d: mmap %v != heap %v", pass, i, got, want[i])
			}
			peak = max(peak, vmRSS())
			// Ten route-shaped queries between them reach every leaf of
			// this source, so laziness is asserted where it is visible:
			// after the first one.
			if loads := r.LeafLoads(); pass == "cold" && i == 0 && (loads == 0 || loads >= int64(leaves)) {
				t.Fatalf("first query materialized %d of %d leaves: pruned leaves must stay on disk", loads, leaves)
			}
		}
		if pass == "cold" {
			coldLoads = r.LeafLoads()
		}
	}
	if r.LoadErrors() != 0 {
		t.Fatalf("load errors: %d", r.LoadErrors())
	}
	if loads := r.LeafLoads(); loads != coldLoads || loads > int64(leaves) {
		t.Fatalf("%d leaf loads after the warm passes, %d after the cold one, %d leaves: a leaf loads once", loads, coldLoads, leaves)
	}
	if res := r.ResidentEstBytes(); res >= heapBytes {
		t.Fatalf("resident estimate %d B >= heap index %d B", res, heapBytes)
	}
	if runtime.GOOS != "linux" {
		t.Skip("VmRSS is read from /proc/self/status; Linux only")
	}
	if peak == 0 || peak > budget {
		t.Fatalf("peak VmRSS %.1f MiB while serving mmap'd, budget %d MiB", float64(peak)/(1<<20), budget>>20)
	}
	t.Logf("leaves %d/%d loaded, resident est %d B (heap %d B), peak VmRSS %.1f MiB",
		r.LeafLoads(), leaves, r.ResidentEstBytes(), heapBytes, float64(peak)/(1<<20))
}

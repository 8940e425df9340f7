package ditsfile

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
	"dits/internal/search/exec"
	"dits/internal/search/overlap"
)

// buildWorld generates n clustered datasets on a 2^theta grid and indexes
// them. Deterministic per seed; same shape as the exec test worlds.
func buildWorld(t testing.TB, n, theta, f int, seed int64) (*dits.Local, []*dataset.Node) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	side := 1 << uint(theta)
	nodes := make([]*dataset.Node, 0, n)
	for i := 0; i < n; i++ {
		blk := 4 + rng.Intn(12)
		bx, by := rng.Intn(side-blk), rng.Intn(side-blk)
		var ids []uint64
		for dx := 0; dx < blk; dx++ {
			for dy := 0; dy < blk; dy++ {
				if rng.Intn(3) > 0 {
					ids = append(ids, geo.ZEncode(uint32(bx+dx), uint32(by+dy)))
				}
			}
		}
		if nd := dataset.NewNodeFromCells(i, fmt.Sprintf("ds-%d", i), cellset.New(ids...)); nd != nil {
			nodes = append(nodes, nd)
		}
	}
	g := geo.NewGrid(1, geo.Rect{MinX: 0, MinY: 0, MaxX: float64(side), MaxY: float64(side)})
	return dits.Build(g, nodes, f), nodes
}

func queryFrom(rng *rand.Rand, nodes []*dataset.Node) *dataset.Node {
	q := nodes[rng.Intn(len(nodes))].Cells
	for j := 0; j < rng.Intn(3); j++ {
		q = q.Union(nodes[rng.Intn(len(nodes))].Cells)
	}
	return dataset.NewNodeFromCells(-1, "query", q)
}

// writeSnap writes idx to a fresh snapshot file and returns its path.
func writeSnap(t testing.TB, idx *dits.Local) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.dsnap")
	if err := WriteFile(path, idx); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func pickedIDs(r coverage.Result) []int {
	ids := make([]int, len(r.Picked))
	for i, nd := range r.Picked {
		ids[i] = nd.ID
	}
	return ids
}

// checkParity runs the full search surface — sequential top-k, parallel
// and batched executor, coverage search, connect-set walks — against both
// indexes and requires identical results.
func checkParity(t *testing.T, heap, fb *dits.Local, nodes []*dataset.Node, seed int64) {
	t.Helper()
	if err := fb.CheckInvariants(); err != nil {
		t.Fatalf("file-backed invariants: %v", err)
	}
	if heap.Len() != fb.Len() {
		t.Fatalf("Len: heap %d, file-backed %d", heap.Len(), fb.Len())
	}
	for _, nd := range heap.All() {
		got := fb.Get(nd.ID)
		if got == nil {
			t.Fatalf("dataset %d missing from file-backed index", nd.ID)
		}
		if got.Name != nd.Name || got.Rect != nd.Rect || got.Coverage() != nd.Coverage() {
			t.Fatalf("dataset %d differs: %+v vs %+v", nd.ID, got, nd)
		}
		if !got.CompactCells().Equal(nd.CompactCells()) {
			t.Fatalf("dataset %d cells differ", nd.ID)
		}
	}
	rng := rand.New(rand.NewSource(seed * 131))
	hs := &overlap.DITSSearcher{Index: heap}
	fs := &overlap.DITSSearcher{Index: fb}
	e := &exec.Executor{}
	ctx := context.Background()
	var batch []exec.BatchQuery
	for qi := 0; qi < 10; qi++ {
		q := queryFrom(rng, nodes)
		k := 1 + rng.Intn(8)
		want := hs.TopK(q, k)
		if got := fs.TopK(q, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d query %d: TopK %v != heap %v", seed, qi, got, want)
		}
		got, err := e.OverlapTopK(ctx, fb, q, k)
		if err != nil {
			t.Fatalf("executor: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d query %d: executor %v != heap %v", seed, qi, got, want)
		}
		batch = append(batch, exec.BatchQuery{Q: q, K: k})

		delta := float64(1 + rng.Intn(4))
		ck := 1 + rng.Intn(4)
		wantCov, err := e.CoverageSearch(ctx, heap, q, delta, ck)
		if err != nil {
			t.Fatalf("heap coverage: %v", err)
		}
		gotCov, err := e.CoverageSearch(ctx, fb, q, delta, ck)
		if err != nil {
			t.Fatalf("file-backed coverage: %v", err)
		}
		if !reflect.DeepEqual(pickedIDs(gotCov), pickedIDs(wantCov)) || gotCov.Coverage != wantCov.Coverage {
			t.Fatalf("seed %d query %d: coverage %v/%d != heap %v/%d",
				seed, qi, pickedIDs(gotCov), gotCov.Coverage, pickedIDs(wantCov), wantCov.Coverage)
		}
		wantConn := coverage.FindConnectSet(heap.Root, q, delta)
		gotConn := coverage.FindConnectSet(fb.Root, q, delta)
		if len(wantConn) != len(gotConn) {
			t.Fatalf("seed %d query %d: connect set size %d != %d", seed, qi, len(gotConn), len(wantConn))
		}
		for i := range wantConn {
			if wantConn[i].ID != gotConn[i].ID {
				t.Fatalf("seed %d query %d: connect set diverges at %d", seed, qi, i)
			}
		}
	}
	wantBatch, err := e.OverlapTopKBatch(ctx, heap, batch)
	if err != nil {
		t.Fatalf("heap batch: %v", err)
	}
	gotBatch, err := e.OverlapTopKBatch(ctx, fb, batch)
	if err != nil {
		t.Fatalf("file-backed batch: %v", err)
	}
	if !reflect.DeepEqual(gotBatch, wantBatch) {
		t.Fatalf("seed %d: batch diverged", seed)
	}
}

// TestRoundTripParity is the tentpole differential: a snapshot opened in
// mmap mode, in copy mode, and via LoadHeap must be search-identical to
// the heap index it was written from.
func TestRoundTripParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, cfg := range []struct{ n, f int }{{1, 4}, {7, 2}, {120, 5}, {250, 16}} {
			heap, nodes := buildWorld(t, cfg.n, 8, cfg.f, seed)
			path := writeSnap(t, heap)
			for _, opts := range []Options{{MMap: true}, {MMap: false, VerifyData: true}} {
				r, err := Open(path, opts)
				if err != nil {
					t.Fatalf("n=%d f=%d mmap=%v: Open: %v", cfg.n, cfg.f, opts.MMap, err)
				}
				checkParity(t, heap, r.Index(), nodes, seed)
				if r.LoadErrors() != 0 {
					t.Fatalf("load errors: %d", r.LoadErrors())
				}
				if opts.MMap && mmapSupported {
					if r.data == nil || r.MappedBytes() == 0 {
						t.Fatal("mmap open did not map")
					}
					r.DropResident()
					// Results must survive a page drop (refault from file).
					checkParity(t, heap, r.Index(), nodes, seed+7)
				}
				if r.Index().MemoryBytes() != r.ResidentEstBytes() {
					t.Fatal("file-backed MemoryBytes should delegate to Backing")
				}
				if err := r.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}
			hl, err := LoadHeap(path)
			if err != nil {
				t.Fatalf("LoadHeap: %v", err)
			}
			if hl.Backing != nil {
				t.Fatal("LoadHeap index still file-backed")
			}
			checkParity(t, heap, hl, nodes, seed+13)
		}
	}
}

// TestWriterDeterministic pins byte-stable output: two writes of one
// index are identical, so snapshot checksums are reproducible.
func TestWriterDeterministic(t *testing.T) {
	heap, _ := buildWorld(t, 90, 8, 5, 4)
	a, err := os.ReadFile(writeSnap(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(writeSnap(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two writes of the same index differ")
	}
}

// TestLiveOverlayParity is the WAL-overlay differential: the same
// mutation stream applied to a file-backed index (lazy leaves and all)
// and to a plain heap index must leave them search-identical at every
// checkpoint. This is exactly what the ingest store does between
// compactions — serve the snapshot with the WAL tail applied on top.
func TestLiveOverlayParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		path := writeSnap(t, mustBuild(t, seed))
		for _, mm := range []bool{true, false} {
			// Fresh heap twin each mode: both sides mutate below.
			heap, nodes := buildWorld(t, 100, 8, 4, seed)
			r, err := Open(path, Options{MMap: mm})
			if err != nil {
				t.Fatal(err)
			}
			fb := r.Index()
			rng := rand.New(rand.NewSource(seed * 977))
			live := append([]*dataset.Node(nil), nodes...)
			nextID := 10_000
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(3); {
				case op == 0 || len(live) < 5: // insert
					nd := queryFrom(rng, nodes)
					nd.ID, nd.Name = nextID, fmt.Sprintf("ins-%d", nextID)
					nextID++
					nd2 := dataset.NewNodeFromCells(nd.ID, nd.Name, nd.Cells)
					if err := heap.Insert(nd); err != nil {
						t.Fatalf("heap insert: %v", err)
					}
					if err := fb.Insert(nd2); err != nil {
						t.Fatalf("file-backed insert: %v", err)
					}
					live = append(live, nd)
				case op == 1: // delete
					i := rng.Intn(len(live))
					id := live[i].ID
					live = append(live[:i], live[i+1:]...)
					if err := heap.Delete(id); err != nil {
						t.Fatalf("heap delete %d: %v", id, err)
					}
					if err := fb.Delete(id); err != nil {
						t.Fatalf("file-backed delete %d: %v", id, err)
					}
				default: // update
					i := rng.Intn(len(live))
					id, name := live[i].ID, live[i].Name
					c := queryFrom(rng, nodes).Cells
					upd := dataset.NewNodeFromCells(id, name, c)
					upd2 := dataset.NewNodeFromCells(id, name, c)
					if err := heap.Update(upd); err != nil {
						t.Fatalf("heap update %d: %v", id, err)
					}
					if err := fb.Update(upd2); err != nil {
						t.Fatalf("file-backed update %d: %v", id, err)
					}
					live[i] = upd
				}
				if step%15 == 14 {
					checkParity(t, heap, fb, live, seed+int64(step))
				}
			}
			checkParity(t, heap, fb, live, seed+99)
			r.Close()
		}
	}
}

// TestSnapshotGoldenBytes pins the format byte for byte: the SHA-256 of the
// snapshot of a small seeded index, spread over four chunks, with one leaf
// whose union holds a bitmap chunk. TestWriterDeterministic only compares
// the writer with itself; this fails on any accidental change to a byte.
// Change the digest only together with a deliberate format change.
func TestSnapshotGoldenBytes(t *testing.T) {
	const (
		golden        = "8cd63baac48d1e7b82451335bfd207cc2e13bf7055a5979316f8cba15a82511b"
		goldenMutated = "ed794844818f8cecd3501b29595e6132ca33fcbf435e52cf1bc684115fdbaee3"
	)
	_, nodes := buildWorld(t, 60, 9, 6, 21)
	var dense []uint64
	for x := 300; x < 370; x++ {
		for y := 300; y < 370; y++ {
			dense = append(dense, geo.ZEncode(uint32(x), uint32(y)))
		}
	}
	nodes = append(nodes, dataset.NewNodeFromCells(1000, "dense", cellset.New(dense...)))
	g := geo.NewGrid(1, geo.Rect{MinX: 0, MinY: 0, MaxX: 512, MaxY: 512})
	idx := dits.Build(g, nodes, 6)
	// A chunk spans 2^16 cells; one past 4096 of them is a bitmap.
	bitmapUnion := false
	idx.Root.VisitLeaves(func(n *dits.TreeNode) {
		union := n.LeafSummaries()
		inChunk := map[uint64]int{}
		union.ForEach(func(c uint64) bool { inChunk[c>>16]++; return true })
		for _, cells := range inChunk {
			bitmapUnion = bitmapUnion || cells > 4096
		}
	})
	if !bitmapUnion {
		t.Fatal("no leaf union holds a bitmap chunk")
	}
	check := func(label, golden string) {
		t.Helper()
		data, err := os.ReadFile(writeSnap(t, idx))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != golden {
			t.Fatalf("%s: snapshot SHA-256 %s, golden %s: the on-disk format changed", label, got, golden)
		}
	}
	check("built", golden)

	// The same after mutations: mutated leaves write the same bytes as
	// built ones.
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 12; i++ {
		nd := queryFrom(rng, nodes)
		nd.ID, nd.Name = 2000+i, fmt.Sprintf("ins-%d", i)
		if err := idx.Insert(nd); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 20; id += 3 {
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Update(dataset.NewNodeFromCells(1000, "dense", nodes[1].Cells)); err != nil {
		t.Fatal(err)
	}
	check("mutated", goldenMutated)
}

// TestOldVersionRefused: a snapshot of the previous format version, whose
// leaves also carried the all-children summary, is refused at open with an
// error naming both versions, not misread.
func TestOldVersionRefused(t *testing.T) {
	heap, _ := buildWorld(t, 20, 6, 3, 5)
	path := writeSnap(t, heap)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "DSNAP001") // the magic is outside the header CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mm := range []bool{true, false} {
		_, err := Open(path, Options{MMap: mm})
		if err == nil || !strings.Contains(err.Error(), "DSNAP001") || !strings.Contains(err.Error(), magic) {
			t.Fatalf("mmap=%v: Open = %v, want an error naming DSNAP001 and %s", mm, err, magic)
		}
	}
}

func mustBuild(t *testing.T, seed int64) *dits.Local {
	t.Helper()
	heap, _ := buildWorld(t, 100, 8, 4, seed)
	return heap
}

// sectionTable parses the five section descriptors out of raw header
// bytes (offsets only; the test corrupts files below the API).
func sectionTable(t *testing.T, raw []byte) [numSecs]section {
	t.Helper()
	var secs [numSecs]section
	for i := range secs {
		p := raw[72+24*i:]
		secs[i] = section{
			off: binary.LittleEndian.Uint64(p),
			len: binary.LittleEndian.Uint64(p[8:]),
		}
	}
	return secs
}

// TestTornAndCorruptFiles drives the torn-write table: truncation at
// every section boundary and a bit flip inside every section must fail
// cleanly — an error from a verifying open, never a panic — which is
// what lets ingest recovery fall back to a WAL replay.
func TestTornAndCorruptFiles(t *testing.T) {
	heap, nodes := buildWorld(t, 80, 8, 5, 6)
	good, err := os.ReadFile(writeSnap(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	secs := sectionTable(t, good)

	type tc struct {
		name string
		data []byte
	}
	var cases []tc
	trunc := func(name string, n uint64) {
		if n < uint64(len(good)) {
			cases = append(cases, tc{name, good[:n]})
		}
	}
	trunc("empty", 0)
	trunc("half-header", headerLen/2)
	trunc("header-only", headerLen)
	for i, s := range secs {
		trunc(fmt.Sprintf("at-section-%d", i), s.off)
		trunc(fmt.Sprintf("mid-section-%d", i), s.off+s.len/2)
		trunc(fmt.Sprintf("end-section-%d", i), s.off+s.len)
	}
	trunc("last-byte", uint64(len(good))-1)
	flip := func(name string, at uint64) {
		b := append([]byte(nil), good...)
		b[at] ^= 0x10
		cases = append(cases, tc{name, b})
	}
	flip("magic", 0)
	flip("header-crc", 9)
	flip("header-body", 40)
	for i, s := range secs {
		if s.len > 0 {
			flip(fmt.Sprintf("flip-section-%d", i), s.off+s.len/2)
		}
	}

	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	for ci, c := range cases {
		path := filepath.Join(dir, fmt.Sprintf("torn-%d.dsnap", ci))
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The verifying open (ingest recovery) must reject every case.
		if _, err := LoadHeap(path); err == nil {
			t.Errorf("%s: LoadHeap accepted corrupt snapshot", c.name)
		}
		// A non-verifying open may succeed on payload damage; it must
		// never panic, whatever searches run afterwards.
		for _, mm := range []bool{true, false} {
			r, err := Open(path, Options{MMap: mm})
			if err != nil {
				continue
			}
			s := &overlap.DITSSearcher{Index: r.Index()}
			for qi := 0; qi < 3; qi++ {
				s.TopK(queryFrom(rng, nodes), 5)
			}
			r.Index().CheckInvariants()
			r.Close()
		}
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes through the full open path —
// header decode, skeleton validation, and leaf materialization via a
// search — asserting it never panics. Seeds include a valid snapshot so
// the fuzzer mutates from meaningful structure.
func FuzzSnapshotDecode(f *testing.F) {
	heap, _ := buildWorld(f, 16, 6, 3, 11)
	good, err := os.ReadFile(writeSnap(f, heap))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:headerLen])
	f.Add(good[:len(good)/2])
	f.Add([]byte(magic))
	q := dataset.NewNodeFromCells(-1, "q", cellset.New(1, 2, 3, 257, 70000))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.dsnap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		for _, opts := range []Options{{MMap: true}, {VerifyData: true}} {
			r, err := Open(path, opts)
			if err != nil {
				continue
			}
			(&overlap.DITSSearcher{Index: r.Index()}).TopK(q, 3)
			r.Index().CheckInvariants()
			r.Close()
		}
	})
}

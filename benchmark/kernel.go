package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/index/ditsfile"
	"dits/internal/ingest"
	"dits/internal/obs"
	"dits/internal/search/exec"
)

// kernelSource is the source the private index, store and snapshot
// kernels copy: the smaller of the two sources mixed-rw mutates.
const kernelSource = "Transit"

// timeEach calls fn up to n times, stopping early once budget is spent and
// at least three calls were made, and returns each call's nanoseconds.
func timeEach(n int, budget time.Duration, fn func(i int)) []float64 {
	out := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		if i >= 3 && time.Since(start) > budget {
			break
		}
		t := time.Now()
		fn(i)
		out = append(out, float64(time.Since(t)))
	}
	return out
}

func p50(ns []float64) float64 { return percentile(sortedCopy(ns), 50) }

// kernelQuery is one generated query prepared for direct calls.
type kernelQuery struct {
	home  *sourceHandle // the source the query was shaped after
	cells cellset.Set
	node  *dataset.Node
}

// kernelPass times direct calls into each package's public functions on
// the run's own indexes and freshly generated queries, and writes the
// results into m. It runs while the stack is idle. dir is scratch space.
func kernelPass(ctx context.Context, st *stack, gen *generator, s *stream, dir string, m map[string]float64) error {
	byName := make(map[string]*sourceHandle)
	for _, h := range st.sources {
		byName[h.name] = h
	}

	// geo + cellset.FromPoints: points -> cells, as the gateway does it.
	const nq = 128
	qs := make([]kernelQuery, nq)
	var gridNs, gridPts float64
	for i := range qs {
		c := s.fresh()
		pts := gen.points(c)
		t := time.Now()
		cells := cellset.FromPoints(st.grid, pts)
		gridNs += float64(time.Since(t))
		gridPts += float64(len(pts))
		qs[i] = kernelQuery{byName[gen.bases[c.base].source], cells, dataset.NewNodeFromCells(-1, "query", cells)}
	}
	m["geo.grid_ns_per_point"] = gridNs / gridPts

	// search/exec, sequential like a source server with default -workers.
	ex := &exec.Executor{Workers: 1}
	m["exec.overlap_us_p50"] = p50(timeEach(nq, 2*time.Second, func(i int) {
		ex.OverlapTopK(ctx, qs[i].home.index(), qs[i].node, ojspK)
	})) / 1e3
	var tasks, serial []float64
	for _, q := range qs[:32] {
		tr := exec.TraceOverlap(q.home.index(), q.node, ojspK)
		work := tr.SerialNs
		for _, t := range tr.TaskNs {
			work += t
		}
		tasks = append(tasks, float64(len(tr.TaskNs)))
		if work > 0 {
			serial = append(serial, tr.SerialNs/work)
		}
	}
	m["exec.leaf_tasks_per_query"] = mean(tasks)
	m["exec.serial_share"] = mean(serial)

	// One batch of 16 against 16 single searches, per source that has 16.
	var speedups []float64
	for _, h := range st.sources {
		var batch []exec.BatchQuery
		for _, q := range qs {
			if q.home == h && len(batch) < batchSize {
				batch = append(batch, exec.BatchQuery{Q: q.node, K: ojspK})
			}
		}
		if len(batch) < batchSize {
			continue
		}
		idx := h.index()
		t := time.Now()
		for _, b := range batch {
			ex.OverlapTopK(ctx, idx, b.Q, b.K)
		}
		single := time.Since(t)
		t = time.Now()
		ex.OverlapTopKBatch(ctx, idx, batch)
		speedups = append(speedups, float64(single)/float64(time.Since(t)))
	}
	m["exec.batch16_speedup"] = median(speedups)

	m["exec.coverage_ms_p50"] = p50(timeEach(16, 1500*time.Millisecond, func(i int) {
		ex.CoverageSearch(ctx, qs[i].home.index(), qs[i].node, cjspDelta, cjspK)
	})) / 1e6
	conn := make([][]*dataset.Node, 32)
	m["exec.connectset_ms_p50"] = p50(timeEach(len(conn), time.Second, func(i int) {
		conn[i] = ex.FindConnectSet(ctx, qs[i].home.index().Root, qs[i].node, cjspDelta,
			cellset.NewDistIndex(qs[i].cells, cjspDelta))
	})) / 1e6
	m["exec.pickbest_us_p50"] = p50(timeEach(len(conn), time.Second, func(i int) {
		ex.PickBest(ctx, conn[i], func(int) bool { return false }, qs[i].node.CompactCells())
	})) / 1e3

	// cellset: each query against datasets of its home source.
	var isectNs, gainNs, pairs, fromNs, wireB, cellsN float64
	for _, q := range qs {
		qc := q.node.CompactCells()
		ds := q.home.nodes[:min(64, len(q.home.nodes))]
		t := time.Now()
		for _, d := range ds {
			qc.IntersectCount(d.CompactCells())
		}
		isectNs += float64(time.Since(t))
		t = time.Now()
		for _, d := range ds {
			qc.MarginalGain(d.CompactCells())
		}
		gainNs += float64(time.Since(t))
		pairs += float64(len(ds))
		t = time.Now()
		cellset.FromSet(q.cells)
		fromNs += float64(time.Since(t))
		wireB += float64(len(q.cells.AppendWire(nil)))
		cellsN += float64(q.cells.Len())
	}
	m["cellset.intersect_ns"] = isectNs / pairs
	m["cellset.marginal_gain_ns"] = gainNs / pairs
	m["cellset.fromset_ns_per_cell"] = fromNs / cellsN
	m["cellset.wire_bytes_per_cell"] = wireB / cellsN

	// transport: the binary codec on overlap requests, per KiB of payload.
	var encNs, decNs, kib float64
	var buf []byte
	for _, q := range qs {
		req := federation.OverlapRequest{Cells: q.cells, K: ojspK}
		t := time.Now()
		var err error
		if buf, err = federation.BinaryCodec.Append(buf[:0], &req); err != nil {
			return fmt.Errorf("codec append: %w", err)
		}
		encNs += float64(time.Since(t))
		var back federation.OverlapRequest
		t = time.Now()
		if err := federation.BinaryCodec.Decode(buf, &back); err != nil {
			return fmt.Errorf("codec decode: %w", err)
		}
		decNs += float64(time.Since(t))
		kib += float64(len(buf)) / 1024
	}
	m["transport.encode_ns_per_kb"] = encNs / kib
	m["transport.decode_ns_per_kb"] = decNs / kib

	// cache: probes with keys as long as the center's (8 bytes per cell).
	rc := cache.New(cacheSize)
	keys := make([]string, nq)
	for i, q := range qs {
		key := make([]byte, 0, 8*len(q.cells))
		for _, c := range q.cells {
			key = binary.LittleEndian.AppendUint64(key, c)
		}
		keys[i] = string(key)
		if i%2 == 0 {
			rc.Put(keys[i], i)
		}
	}
	t := time.Now()
	const probes = 1 << 14
	for i := 0; i < probes; i++ {
		rc.Get(keys[i%nq])
	}
	m["cache.probe_ns"] = float64(time.Since(t)) / probes

	// admission: the run's own controller.
	ctl := st.gw.Admission()
	t = time.Now()
	for i := 0; i < probes; i++ {
		if release, _, ok := ctl.Admit(ctx, "bench"); ok {
			release()
		}
	}
	m["admission.admit_ns"] = float64(time.Since(t)) / probes

	// index/dits: shape of the serving indexes, DITS-G candidate walk, and
	// insert/delete on a private copy of one source.
	var nodes, height, mem float64
	var sums []dits.SourceSummary
	for _, h := range st.sources {
		idx := h.index()
		nodes += float64(idx.NumTreeNodes())
		height = max(height, float64(idx.Height()))
		mem += float64(idx.MemoryBytes())
		sums = append(sums, h.srv.Summary())
	}
	m["dits.build_s"] = float64(st.buildNs) / 1e9
	m["dits.nodes"], m["dits.height"], m["dits.memory_mb"] = nodes, height, mem/(1<<20)
	global := dits.BuildGlobal(sums, dits.DefaultLeafCapacity)
	t = time.Now()
	for i := 0; i < probes; i++ {
		// The query's MBR in raw coordinates, as the center derives it.
		r, g := qs[i%nq].node.Rect, st.grid
		raw := geo.Rect{
			MinX: g.Origin.X + r.MinX*g.CellW, MinY: g.Origin.Y + r.MinY*g.CellH,
			MaxX: g.Origin.X + (r.MaxX+1)*g.CellW, MaxY: g.Origin.Y + (r.MaxY+1)*g.CellH,
		}
		global.CandidateSources(dits.QueryNode{Rect: raw, O: raw.Center(), R: raw.Radius()}, 0)
	}
	m["dits.global_candidates_us"] = float64(time.Since(t)) / probes / 1e3

	home := byName[kernelSource]
	fresh := freshNodes(gen, s.rng, home.name, 128)
	private := dits.Build(st.grid, slices.Clone(home.nodes), leafCap)
	var kerr error
	m["dits.insert_us_p50"] = p50(timeEach(len(fresh), time.Second, func(i int) {
		if err := private.Insert(fresh[i]); err != nil && kerr == nil {
			kerr = fmt.Errorf("dits insert: %w", err)
		}
	})) / 1e3
	m["dits.delete_us_p50"] = p50(timeEach(len(fresh), time.Second, func(i int) {
		if err := private.Delete(fresh[i].ID); err != nil && kerr == nil {
			kerr = fmt.Errorf("dits delete: %w", err)
		}
	})) / 1e3
	if kerr != nil {
		return kerr
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := ditsfileKernels(private, dir, m); err != nil {
		return err
	}
	return ingestKernels(st, home, fresh, dir, m)
}

// freshNodes builds n new dataset nodes shaped after the named source's
// datasets, with IDs no source uses.
func freshNodes(gen *generator, rng *rand.Rand, source string, n int) []*dataset.Node {
	var own []int32
	for i, b := range gen.bases {
		if b.source == source {
			own = append(own, int32(i))
		}
	}
	out := make([]*dataset.Node, 0, n)
	for i := 0; len(out) < n && len(own) > 0; i++ {
		c := combo{own[rng.Intn(len(own))], int8(rng.Intn(5) - 2), int8(rng.Intn(5) - 2)}
		out = append(out, dataset.NewNodeFromCells(1<<24+i, fmt.Sprintf("kernel-%d", i), gen.cells(c)))
	}
	return out
}

// ditsfileKernels times the snapshot format on the private index.
func ditsfileKernels(idx *dits.Local, dir string, m map[string]float64) error {
	path := filepath.Join(dir, "kernel.dsnap")
	t := time.Now()
	if err := ditsfile.WriteFile(path, idx); err != nil {
		return fmt.Errorf("ditsfile write: %w", err)
	}
	m["ditsfile.write_ms"] = float64(time.Since(t)) / 1e6
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["ditsfile.bytes_per_dataset"] = float64(fi.Size()) / float64(max(idx.Len(), 1))
	t = time.Now()
	if _, err := ditsfile.LoadHeap(path); err != nil {
		return fmt.Errorf("ditsfile load: %w", err)
	}
	m["ditsfile.loadheap_ms"] = float64(time.Since(t)) / 1e6
	t = time.Now()
	r, err := ditsfile.Open(path, ditsfile.Options{MMap: true})
	if err != nil {
		return fmt.Errorf("ditsfile open: %w", err)
	}
	m["ditsfile.open_mmap_ms"] = float64(time.Since(t)) / 1e6
	return r.Close()
}

// ingestKernels times a private store: puts without and with fsync, WAL
// growth, one snapshot compaction and a recovery open. The serving stores
// only contribute their compaction count.
func ingestKernels(st *stack, home *sourceHandle, fresh []*dataset.Node, dir string, m map[string]float64) error {
	var snaps float64
	for _, h := range st.sources {
		if h.store != nil {
			snaps += float64(h.store.Stats().Snapshots)
		}
	}
	m["ingest.snapshots"] = snaps

	open := func(name string, fsync ingest.FsyncMode) (*ingest.Store, error) {
		return ingest.Open(filepath.Join(dir, name), ingest.Options{
			Fsync: fsync, SnapshotEvery: -1,
			Bootstrap: func() (*dits.Local, error) {
				return dits.Build(st.grid, slices.Clone(home.nodes), leafCap), nil
			},
		})
	}
	puts := func(s *ingest.Store, nodes []*dataset.Node) (float64, error) {
		var perr error
		ns := timeEach(len(nodes), 2*time.Second, func(i int) {
			if _, err := s.PutDataset(nodes[i].ID, nodes[i].Name, nodes[i].Cells); err != nil && perr == nil {
				perr = fmt.Errorf("store put: %w", err)
			}
		})
		return p50(ns) / 1e3, perr
	}

	store, err := open("kernel-store", ingest.FsyncNever)
	if err != nil {
		return err
	}
	half := len(fresh) / 2
	wal0 := store.Stats().WALBytes
	if m["ingest.put_us_p50"], err = puts(store, fresh[:half]); err != nil {
		store.Close()
		return err
	}
	m["ingest.wal_bytes_per_put"] = float64(store.Stats().WALBytes-wal0) / float64(max(half, 1))
	t := time.Now()
	if err := store.Snapshot(); err != nil {
		store.Close()
		return fmt.Errorf("store snapshot: %w", err)
	}
	m["ingest.snapshot_ms"] = float64(time.Since(t)) / 1e6
	// Leave a WAL tail behind the snapshot so recovery replays something.
	if _, err := puts(store, fresh[half:]); err != nil {
		store.Close()
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	t = time.Now()
	store, err = open("kernel-store", ingest.FsyncNever)
	if err != nil {
		return fmt.Errorf("store recover: %w", err)
	}
	m["ingest.recover_ms"] = float64(time.Since(t)) / 1e6
	if err := store.Close(); err != nil {
		return err
	}

	// Informational: this times the sandbox's disk, not the program.
	synced, err := open("kernel-store-fsync", ingest.FsyncAlways)
	if err != nil {
		return err
	}
	m["ingest.put_fsync_us_p50"], err = puts(synced, fresh[:min(32, len(fresh))])
	if cerr := synced.Close(); err == nil {
		err = cerr
	}
	return err
}

// directBackendSelf calls the gateway's backend (the center, or the
// cluster's gateway-side scatter/gather) directly, inside a trace so the
// seam wrappers record the rpcs underneath, and returns each call's self
// time in nanoseconds: the call minus the union of its outgoing rpcs.
// The recorder must be on and drained. It makes up to n calls, but after
// the third stops once budget is spent.
func directBackendSelf(ctx context.Context, st *stack, gen *generator, s *stream, c class, n int, budget time.Duration) []float64 {
	var backend gateway.Backend = st.center
	outgoing := kindRPC
	if st.cluster != nil {
		backend, outgoing = st.cluster, kindHop
	}
	var out []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < n && (i < 3 || time.Now().Before(deadline)); i++ {
		cells := gen.cells(s.fresh())
		tctx := obs.WithTrace(ctx, obs.NewTrace())
		id := obs.TraceFrom(tctx).ID()
		root := span{Trace: id, Start: st.rec.now()}
		var err error
		if c == classCJSP {
			_, err = backend.CoverageSearch(tctx, cells, cjspDelta, cjspK)
		} else {
			_, err = backend.OverlapSearch(tctx, cells, ojspK)
		}
		root.End = st.rec.now()
		if err != nil {
			continue
		}
		var children []span
		for _, sp := range st.rec.take() {
			if sp.Trace == id && sp.Kind == outgoing {
				children = append(children, sp)
			}
		}
		out = append(out, float64(selfTime(root, children)))
	}
	return out
}

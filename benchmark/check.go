package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"dits/internal/cellset"
	"dits/internal/federation"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/transport"
	"dits/internal/workload"
)

// Queries replayed per class by one answer check. A CJSP answer costs a
// few hundred milliseconds plus a stateless reference search, so it gets
// fewer than the cheap classes.
const (
	checkOJSP  = 32
	checkBatch = 2 // requests of batchSize queries
	checkCJSP  = 4
)

// liveSet is one dataset as the oracle holds it: a plain sorted cell set.
type liveSet struct {
	name  string
	cells cellset.Set
}

// oracle is the reference the stack's answers are compared against. It
// shares nothing with the indexes: OJSP answers come from a brute-force
// scan over plain cell sets, CJSP invariants are recomputed from them.
type oracle struct {
	grid geo.Grid
	live map[string]map[int]liveSet // source -> dataset id -> dataset
}

func newOracle(st *stack) *oracle {
	or := &oracle{grid: st.grid, live: make(map[string]map[int]liveSet)}
	for _, h := range st.sources {
		sets := make(map[int]liveSet, len(h.nodes))
		for _, nd := range h.nodes {
			sets[nd.ID] = liveSet{nd.Name, nd.FlatCells()}
		}
		or.live[h.name] = sets
	}
	return or
}

// apply replays acknowledged mutations onto the oracle's state.
func (or *oracle) apply(muts []workload.Mutation) {
	for _, m := range muts {
		if m.Op == workload.MutDelete {
			delete(or.live[m.Source], m.ID)
			continue
		}
		pts := make([]geo.Point, len(m.Points))
		for i, p := range m.Points {
			pts[i] = geo.Point{X: p[0], Y: p[1]}
		}
		or.live[m.Source][m.ID] = liveSet{m.Name, cellset.FromPoints(or.grid, pts)}
	}
}

// topK is the reference OJSP: every live dataset with a non-zero overlap,
// ranked overlap descending, then source, then ID.
func (or *oracle) topK(q cellset.Set, k int) []gateway.OverlapResult {
	var all []gateway.OverlapResult
	for source, sets := range or.live {
		for id, d := range sets {
			if n := q.IntersectCount(d.cells); n > 0 {
				all = append(all, gateway.OverlapResult{Source: source, ID: id, Name: d.name, Overlap: n})
			}
		}
	}
	slices.SortFunc(all, func(a, b gateway.OverlapResult) int {
		return cmp.Or(cmp.Compare(b.Overlap, a.Overlap), cmp.Compare(a.Source, b.Source), cmp.Compare(a.ID, b.ID))
	})
	return all[:min(k, len(all))]
}

func (or *oracle) checkOverlap(got []gateway.OverlapResult, q cellset.Set, k int) error {
	want := or.topK(q, k)
	if !slices.Equal(got, want) {
		return fmt.Errorf("overlap answer %+v, brute force says %+v", got, want)
	}
	return nil
}

// checkCoverage verifies a CJSP answer's invariants against the plain
// cell sets, then its identity with the stateless reference center.
func (or *oracle) checkCoverage(ctx context.Context, ref *federation.Center, got gateway.CoverageResponse, q cellset.Set) error {
	if len(got.Picked) > cjspK {
		return fmt.Errorf("coverage picked %d datasets, k is %d", len(got.Picked), cjspK)
	}
	if got.QueryCoverage != q.Len() {
		return fmt.Errorf("queryCoverage %d, query has %d cells", got.QueryCoverage, q.Len())
	}
	merged := q
	for i, p := range got.Picked {
		d, ok := or.live[p.Source][p.ID]
		if !ok {
			return fmt.Errorf("pick %d: %s/%d is not a live dataset", i, p.Source, p.ID)
		}
		if !cellset.WithinDist(merged, d.cells, cjspDelta) {
			return fmt.Errorf("pick %d: %s/%d is not within delta of the set merged before it", i, p.Source, p.ID)
		}
		if gain := merged.MarginalGain(d.cells); gain != p.Gain {
			return fmt.Errorf("pick %d: %s/%d reports gain %d, recomputed %d", i, p.Source, p.ID, p.Gain, gain)
		}
		merged = merged.Union(d.cells)
	}
	if got.Coverage != merged.Len() {
		return fmt.Errorf("coverage %d, union of the picks has %d cells", got.Coverage, merged.Len())
	}
	want, err := ref.CoverageSearch(ctx, q, cjspDelta, cjspK)
	if err != nil {
		return fmt.Errorf("reference coverage search: %w", err)
	}
	if want.Coverage != got.Coverage || len(want.Picked) != len(got.Picked) {
		return fmt.Errorf("coverage %d with %d picks, stateless reference has %d with %d",
			got.Coverage, len(got.Picked), want.Coverage, len(want.Picked))
	}
	for i, w := range want.Picked {
		if p := got.Picked[i]; p.Source != w.Source || p.ID != w.ID || p.Gain != w.Overlap {
			return fmt.Errorf("pick %d is %s/%d (+%d), stateless reference picked %s/%d (+%d)",
				i, p.Source, p.ID, p.Gain, w.Source, w.ID, w.Overlap)
		}
	}
	return nil
}

// referenceCenter builds a stateless (Sessions off) in-process center over
// the stack's own source servers: the CJSP protocol the session protocol
// must agree with, reading the same indexes, touching no wire.
func referenceCenter(ctx context.Context, st *stack) (*federation.Center, error) {
	ref := federation.NewCenter(st.grid, federation.Options{GlobalFilter: true, ClipQuery: true})
	for _, h := range st.sources {
		peer := &transport.InProc{Name: h.name, Handler: h.srv.Handler(),
			Metrics: ref.Metrics, Codec: federation.BinaryCodec}
		if _, err := ref.RegisterRemote(ctx, peer); err != nil {
			return nil, fmt.Errorf("reference center: register %s: %w", h.name, err)
		}
	}
	return ref, nil
}

// hasClass reports whether the workload's mix sends class c.
func (w workloadSpec) hasClass(c class) bool {
	for _, sh := range w.mix {
		if sh.c == c {
			return true
		}
	}
	return false
}

// check replays a few queries of every class the workload sends through
// the full HTTP path and compares each answer with the oracle. It returns
// how many answers it checked and the mismatches it found.
func (l *loader) check(ctx context.Context, or *oracle, s *stream) (attempted int, errs []string) {
	fail := func(req *request, err error) {
		errs = append(errs, fmt.Sprintf("%s %s: %v", req.method, req.path, err))
	}
	// ask sends req and decodes the 200 answer into out.
	ask := func(req *request, out any) bool {
		attempted++
		status, body, _, err := l.send(req, true)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d %s", status, body)
		}
		if err == nil {
			err = json.Unmarshal(body, out)
		}
		if err != nil {
			fail(req, err)
		}
		return err == nil
	}
	cells := l.gen.cells
	spec := l.gen.spec
	for _, c := range []class{classOJSP, classOJSPHot} {
		if !spec.hasClass(c) {
			continue
		}
		for i := 0; i < checkOJSP; i++ {
			req := s.build(c)
			var resp gateway.OverlapResponse
			if ask(req, &resp) {
				if err := or.checkOverlap(resp.Results, cells(req.combos[0]), ojspK); err != nil {
					fail(req, err)
				}
			}
		}
	}
	if spec.hasClass(classBatch) {
		for i := 0; i < checkBatch; i++ {
			req := s.build(classBatch)
			var resp gateway.BatchSearchResponse
			if !ask(req, &resp) {
				continue
			}
			if len(resp.Results) != len(req.combos) {
				fail(req, fmt.Errorf("batch of %d answered %d", len(req.combos), len(resp.Results)))
				continue
			}
			for j, q := range req.combos {
				if err := or.checkOverlap(resp.Results[j], cells(q), ojspK); err != nil {
					fail(req, fmt.Errorf("query %d: %w", j, err))
				}
			}
		}
	}
	if spec.hasClass(classCJSP) {
		ref, err := referenceCenter(ctx, l.st)
		if err != nil {
			return attempted + 1, append(errs, err.Error())
		}
		for i := 0; i < checkCJSP; i++ {
			req := s.build(classCJSP)
			var resp gateway.CoverageResponse
			if ask(req, &resp) {
				if err := or.checkCoverage(ctx, ref, resp, cells(req.combos[0])); err != nil {
					fail(req, err)
				}
			}
		}
	}
	return attempted, errs
}

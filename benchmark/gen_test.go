package main

import (
	"bytes"
	"reflect"
	"testing"
)

// smokeCorpus is the corpus every generator test shares: generating it is
// the slow part, and a corpus is read-only.
var smokeCorpus = newCorpus(0.01)

// drain takes n requests from a stream, resolving mutations the way the
// sender does: in trace order.
func drain(t *testing.T, g *generator, s *stream, n int) []*request {
	t.Helper()
	var out []*request
	mut := 0
	for i := 0; i < n; i++ {
		r := s.next()
		if r.class == classMutate {
			m, err := g.mutation(mut)
			if err != nil {
				t.Fatal(err)
			}
			mut++
			r = m
		}
		out = append(out, r)
	}
	return out
}

func TestSameSeedSameByteStream(t *testing.T) {
	// These two mixes send every class between them.
	for _, name := range []string{"mixed-rw", "cluster-mix"} {
		spec, _ := workloadByName(name)
		a, b := newGenerator(spec, smokeCorpus, 7), newGenerator(spec, smokeCorpus, 7)
		other := newGenerator(spec, smokeCorpus, 8)
		for id := 0; id < numStreams; id++ {
			ra, rb := drain(t, a, a.stream(id), 80), drain(t, b, b.stream(id), 80)
			ro := drain(t, other, other.stream(id), 80)
			differs := false
			for i := range ra {
				if ra[i].method != rb[i].method || ra[i].path != rb[i].path || !bytes.Equal(ra[i].body, rb[i].body) {
					t.Fatalf("%s stream %d request %d: seed 7 produced two different requests", spec.name, id, i)
				}
				differs = differs || ra[i].path != ro[i].path || !bytes.Equal(ra[i].body, ro[i].body)
			}
			if !differs {
				t.Errorf("%s stream %d: seeds 7 and 8 produced the same 80 requests", spec.name, id)
			}
		}
		if !reflect.DeepEqual(a.trace, b.trace) {
			t.Errorf("%s: seed 7 produced two different mutation traces", spec.name)
		}
	}
}

// The no-repeat classes must never send a cell set twice, across all
// streams, or the result cache would answer and the workload would not be
// what its name says.
func TestNoRepeatClassesProduceDistinctCellSets(t *testing.T) {
	spec, _ := workloadByName("mixed-rw") // has OJSP, batch and the hot pool
	g := newGenerator(spec, smokeCorpus, 3)
	seen := make(map[string]bool)
	key := func(q combo) string {
		var b []byte
		for _, c := range g.cells(q) {
			b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24), byte(c>>32), byte(c>>40), byte(c>>48), byte(c>>56))
		}
		return string(b)
	}
	for _, q := range g.hot {
		seen[key(q)] = true
	}
	hot := len(seen)
	perStream := min(1500, len(g.order)/numStreams)
	for id := 0; id < numStreams; id++ {
		s := g.stream(id)
		for i := 0; i < perStream; i++ {
			k := key(s.fresh())
			if seen[k] {
				t.Fatalf("stream %d query %d repeats a cell set already sent", id, i)
			}
			seen[k] = true
		}
	}
	if len(g.hot) == 0 || hot > len(g.hot) {
		t.Fatalf("hot pool has %d queries, %d distinct", len(g.hot), hot)
	}
	t.Logf("%d distinct queries from %d base datasets, hot pool %d", len(seen), len(g.bases), len(g.hot))
}

func TestQueriesAreDatasetShaped(t *testing.T) {
	spec, _ := workloadByName("ojsp-large")
	g := newGenerator(spec, smokeCorpus, 1)
	for i, q := range g.order[:min(2000, len(g.order))] {
		if q.dx < -4 || q.dx > 4 || q.dy < -4 || q.dy > 4 {
			t.Fatalf("combo %d offset (%d,%d) beyond 4 cells", i, q.dx, q.dy)
		}
		if n := g.cells(q).Len(); n < minCells/2 {
			t.Fatalf("combo %d grids to %d cells", i, n)
		}
	}
	// A dataset's first 25 uses stay within two cells, and the sweep uses
	// datasets evenly, so the first 20 queries per dataset all do.
	for i, q := range g.order[:len(g.bases)*20] {
		if max(abs(int(q.dx)), abs(int(q.dy))) > 2 {
			t.Fatalf("combo %d is offset (%d,%d) before the near offsets ran out", i, q.dx, q.dy)
		}
	}
	// Any stretch of the sequence covers the sources in proportion.
	share := make(map[string]float64)
	for _, b := range g.bases {
		share[b.source] += 1 / float64(len(g.bases))
	}
	for start := 0; start+400 <= 4000; start += 400 {
		got := make(map[string]float64)
		for _, q := range g.order[start : start+400] {
			got[g.bases[q.base].source] += 1.0 / 400
		}
		for src, want := range share {
			if d := got[src] - want; d > 0.03 || d < -0.03 {
				t.Errorf("queries %d..%d: %.3f from %s, its share of the datasets is %.3f", start, start+400, got[src], src, want)
			}
		}
	}
}

func TestClassMixFollowsShares(t *testing.T) {
	spec, _ := workloadByName("mixed-rw")
	g := newGenerator(spec, smokeCorpus, 5)
	s := g.stream(streamClient0)
	var n [numClasses]int
	const total = 20000
	for i := 0; i < total; i++ {
		n[s.pickClass()]++
	}
	for _, sh := range spec.mix {
		if got := float64(n[sh.c]) / total; got < sh.p-0.02 || got > sh.p+0.02 {
			t.Errorf("class %d drawn %.3f of the time, want %.2f", sh.c, got, sh.p)
		}
	}
}

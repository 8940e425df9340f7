package dits

import (
	"maps"
	"math/rand"
	"testing"

	"dits/internal/geo"
)

func summaries(n int, rng *rand.Rand) []SourceSummary {
	out := make([]SourceSummary, n)
	for i := range out {
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		r := geo.Rect{MinX: x, MinY: y, MaxX: x + 1 + rng.Float64()*10, MaxY: y + 1 + rng.Float64()*10}
		out[i] = SourceSummary{
			Name: string(rune('A' + i%26)), Rect: r, O: r.Center(), R: r.Radius(),
		}
	}
	return out
}

func TestBuildGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 3, 20, 100} {
		g := BuildGlobal(summaries(n, rng), 4)
		if g.Root == nil {
			t.Fatalf("n=%d: no nodes", n)
		}
		checkCovering(t, g.Root)
		// Every summary is findable with a query covering the world.
		world := QueryNode{Rect: geo.Rect{MinX: -1000, MinY: -1000, MaxX: 1000, MaxY: 1000}}
		world.O = world.Rect.Center()
		world.R = world.Rect.Radius()
		if got := len(g.CandidateSources(world, 0)); got != n {
			t.Fatalf("n=%d: world query found %d sources", n, got)
		}
	}
}

func TestCandidateSourcesPruning(t *testing.T) {
	// Two well-separated sources; a query overlapping only one.
	a := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	b := geo.Rect{MinX: 100, MinY: 100, MaxX: 110, MaxY: 110}
	g := BuildGlobal([]SourceSummary{
		{Name: "near", Rect: a, O: a.Center(), R: a.Radius()},
		{Name: "far", Rect: b, O: b.Center(), R: b.Radius()},
	}, 4)
	q := geo.Rect{MinX: 5, MinY: 5, MaxX: 8, MaxY: 8}
	qn := QueryNode{Rect: q, O: q.Center(), R: q.Radius()}

	got := g.CandidateSources(qn, 0)
	if len(got) != 1 || got[0].Name != "near" {
		t.Fatalf("overlap candidates = %v, want [near]", names(got))
	}
	// A huge δ brings the far source back in.
	got = g.CandidateSources(qn, 1000)
	if len(got) != 2 {
		t.Fatalf("δ=1000 candidates = %v, want both", names(got))
	}
	// δ just below the center-distance lower bound still prunes.
	got = g.CandidateSources(qn, 1)
	if len(got) != 1 {
		t.Fatalf("δ=1 candidates = %v, want [near]", names(got))
	}
}

func TestCandidateSourcesNeverMissesOracle(t *testing.T) {
	// Property: pruning is safe and tested at the leaves. The candidates
	// are exactly the sources whose MBR intersects the query or whose
	// ball lower bound is within δ, whatever the tree's shape.
	rng := rand.New(rand.NewSource(9))
	ss := summaries(60, rng)
	for _, f := range []int{1, 3, 30} {
		g := BuildGlobal(ss, f)
		checkCovering(t, g.Root)
		for trial := 0; trial < 200; trial++ {
			x, y := rng.Float64()*120-10, rng.Float64()*120-10
			q := geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*20, MaxY: y + rng.Float64()*20}
			qn := QueryNode{Rect: q, O: q.Center(), R: q.Radius()}
			delta := rng.Float64() * 20
			got := make(map[string]int)
			for _, s := range g.CandidateSources(qn, delta) {
				got[s.Name+s.Rect.String()]++
			}
			want := make(map[string]int)
			for _, s := range ss {
				lb := s.O.Dist(qn.O) - s.R - qn.R
				if s.Rect.Intersects(q) || lb <= delta {
					want[s.Name+s.Rect.String()]++
				}
			}
			if !maps.Equal(got, want) {
				t.Fatalf("f=%d trial %d: candidates %v, want %v", f, trial, got, want)
			}
		}
	}
}

// checkCovering asserts the structural invariant CandidateSources' pruning
// depends on (and buildGlobal documents): every node's rect contains the
// rects, and every node's ball the balls, of all sources in its subtree.
// It returns the sources under n.
func checkCovering(t *testing.T, n *GNode) []SourceSummary {
	t.Helper()
	if n == nil {
		return nil
	}
	var ss []SourceSummary
	if n.IsLeaf() {
		ss = n.Sources
	} else {
		ss = append(ss, checkCovering(t, n.Left)...)
		ss = append(ss, checkCovering(t, n.Right)...)
	}
	for _, s := range ss {
		if n.Rect.Union(s.Rect) != n.Rect {
			t.Fatalf("node rect %v does not contain source %s rect %v", n.Rect, s.Name, s.Rect)
		}
		if n.O.Dist(s.O)+s.R > n.R+1e-9 {
			t.Fatalf("node ball (R=%v) does not cover source %s ball", n.R, s.Name)
		}
	}
	return ss
}

func names(ss []SourceSummary) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}

package federation

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/index/ditsfile"
	"dits/internal/search/coverage"
	"dits/internal/search/exec"
	"dits/internal/transport"
)

// pick is one greedy step as every CJSP engine must report it.
type pick struct{ ID, Gain int }

// bruteGreedy is CJSP's greedy over plain sets with no index, no bound and
// no incremental state: every round tests every remaining dataset against
// the whole merged set with the pairwise oracle, and the first round whose
// best gain is 0 ends it. It also reports whether some round had two
// candidates tied on the winning gain.
func bruteGreedy(nodes []*dataset.Node, q cellset.Set, delta float64, k int) (picks []pick, tied bool) {
	merged := q
	taken := map[int]bool{}
	for len(picks) < k {
		best, bestGain, atBest := (*dataset.Node)(nil), -1, 0
		for _, nd := range nodes {
			if taken[nd.ID] || cellset.DistNaive(nd.Cells, merged) > delta {
				continue
			}
			switch g := merged.MarginalGain(nd.Cells); {
			case g > bestGain:
				best, bestGain, atBest = nd, g, 1
			case g == bestGain:
				atBest++
				if nd.ID < best.ID {
					best = nd
				}
			}
		}
		if best == nil || bestGain == 0 {
			break
		}
		tied = tied || atBest > 1
		taken[best.ID] = true
		picks = append(picks, pick{best.ID, bestGain})
		merged = merged.Union(best.Cells)
	}
	return picks, tied
}

// bruteTopK is OJSP over plain sets: every dataset's exact overlap with the
// query, ranked by (overlap descending, ID) — the federation's order when
// source names sort like their ID ranges.
func bruteTopK(nodes []*dataset.Node, q cellset.Set, k int) []pick {
	var out []pick
	for _, nd := range nodes {
		if o := q.IntersectCount(nd.Cells); o > 0 {
			out = append(out, pick{nd.ID, o})
		}
	}
	slices.SortFunc(out, func(a, b pick) int {
		return cmp.Or(cmp.Compare(b.Gain, a.Gain), cmp.Compare(a.ID, b.ID))
	})
	return out[:min(k, len(out))]
}

// enginePlaneSources name the five sources of the differential's clustered
// arm. They sort like the ID ranges they are given, and the ring puts three
// of them on one center and none on another of three.
var enginePlaneSources = []string{"sa", "sb", "se", "sf", "sj"}

// enginePlanes shards the nodes over five sources by ID range — with tied
// set, the two tie blocks go to the last two sources — and stands a 2- and
// a 3-center cluster over them.
func enginePlanes(t *testing.T, nodes []*dataset.Node, tied bool) []*Cluster {
	t.Helper()
	parts := make([][]*dataset.Node, len(enginePlaneSources))
	for _, nd := range nodes {
		var s int
		switch {
		case nd.ID == 9001:
			s = 4
		case nd.ID == 9000:
			s = 3
		case tied:
			s = nd.ID * 4 / 160
		default:
			s = nd.ID * 5 / 160
		}
		parts[s] = append(parts[s], nd)
	}
	var servers []*SourceServer
	for i, name := range enginePlaneSources {
		servers = append(servers, NewSourceServerWithGrid(name, dits.Build(worldGrid(), parts[i], 8)))
	}
	var out []*Cluster
	for _, centers := range []int{2, 3} {
		cl := newPlane(t, planeConfig{centers: centers, servers: servers}).cluster
		owned := map[string]int{}
		owners := cl.Stats().SourceOwners
		for _, c := range owners {
			owned[c]++
		}
		if owned["center-1"] != 3 || len(owned) != 2 || owners["sf"] == owners["sj"] {
			t.Fatalf("%d centers: owners %v — want uneven shards with the tie sources apart", centers, owners)
		}
		out = append(out, cl)
	}
	return out
}

// picksOf replays a searcher's pick order against the query to recover the
// gain of every step.
func picksOf(q cellset.Set, picked []*dataset.Node) []pick {
	merged := q
	var out []pick
	for _, nd := range picked {
		cells := nd.FlatCells()
		out = append(out, pick{nd.ID, merged.MarginalGain(cells)})
		merged = merged.Union(cells)
	}
	return out
}

// sessionPicks drives one source's coverage session by hand, the way the
// center does: a Base round, then per pick a fetch that commits the pick
// and carries the next offer. With viaAdded the fetch carries no session
// and the winner's cells come back as the next round's Added (the source
// lost to itself, as it were), so both ways a delta reaches a session are
// walked. The session ends as the next round its source gets closes it,
// and no session of that number must remain.
func sessionPicks(t *testing.T, srv *SourceServer, sess uint64, q cellset.Set, delta float64, k int, viaAdded bool) []pick {
	t.Helper()
	ctx := context.Background()
	var out []pick
	var exclude []int
	round := func(req CoverageRoundRequest) Offer {
		req.Session, req.Delta, req.Exclude = sess, delta, exclude
		resp := srv.handleCoverageRound(ctx, req)
		if resp.SessionMiss || resp.Stateless {
			t.Fatalf("session %d: unexpected round response %+v", sess, resp)
		}
		return resp.Offer
	}
	o := round(CoverageRoundRequest{Base: cellset.FromSet(q)})
	for o.Found {
		out = append(out, pick{o.ID, o.Gain})
		exclude = append(exclude, o.ID)
		if len(out) == k {
			break
		}
		fetch := FetchCellsRequest{Session: sess, ID: o.ID, Exclude: exclude}
		if viaAdded {
			fetch = FetchCellsRequest{ID: o.ID}
		}
		cells := srv.handleFetchCells(ctx, fetch)
		if !cells.Found || cells.Committed == viaAdded {
			t.Fatalf("session %d: unexpected fetch response found=%v committed=%v", sess, cells.Found, cells.Committed)
		}
		if viaAdded {
			o = round(CoverageRoundRequest{Added: cells.Cells})
		} else {
			o = cells.Next
		}
	}
	srv.handleCoverageRound(ctx, CoverageRoundRequest{Close: []uint64{sess}})
	if held(srv, sess) {
		t.Fatalf("session %d outlived the round that closed it", sess)
	}
	return out
}

// TestCoverageEnginesAgree is the engine differential: over two dozen
// seeds, the incremental source session (both delta paths), the
// incremental Executor.CoverageSearch and the paper's
// DITSSearcher, each over the heap index and over the same index mmap'd
// from a snapshot, and the cluster's relayed session engine at 2 and 3
// centers with uneven shards, must return the brute-force greedy's (ID,
// gain) sequence exactly — including on seeds built so that two candidates
// tie on the winning gain, which the cluster holds at different centers
// and is also asked for at k=1, where the tie is the k-th pick. The
// cluster's pruned OJSP is held to the brute-force top-k the same way.
func TestCoverageEnginesAgree(t *testing.T) {
	g := worldGrid()
	side := 1 << theta
	tiedSeeds := 0
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		qx, qy := side/2+rng.Intn(9)-4, side/2+rng.Intn(9)-4
		var ids []uint64
		for j := 0; j < 6+rng.Intn(20); j++ {
			ids = append(ids, geo.ZEncode(uint32(qx+rng.Intn(9)-4), uint32(qy+rng.Intn(9)-4)))
		}
		q := cellset.New(ids...)

		// Datasets scattered over the middle of the grid, dense enough that
		// chains of connected picks exist and sparse enough that most
		// datasets are out of reach of any one round.
		var nodes []*dataset.Node
		for i := 0; i < 160; i++ {
			cx, cy := side/4+rng.Intn(side/2), side/4+rng.Intn(side/2)
			cells := make([]uint64, 1+rng.Intn(15))
			for j := range cells {
				cells[j] = geo.ZEncode(uint32(cx+rng.Intn(9)-4), uint32(cy+rng.Intn(9)-4))
			}
			nodes = append(nodes, dataset.NewNodeFromCells(i, "", cellset.New(cells...)))
		}
		if seed%3 == 0 {
			// Two 5×5 blocks left and right of the query, clear of it and
			// of each other: the same gain, larger than any random
			// dataset's, so round 1 must break the tie toward the smaller
			// ID — which is inserted second.
			nodes = append(nodes,
				dataset.NewNodeFromCells(9001, "", cellBlock(qx+6, qy-2, 5, 5)),
				dataset.NewNodeFromCells(9000, "", cellBlock(qx-10, qy-2, 5, 5)))
		}

		heap := dits.Build(g, nodes, 8)
		path := filepath.Join(t.TempDir(), "index.dsnap")
		if err := ditsfile.WriteFile(path, heap); err != nil {
			t.Fatal(err)
		}
		rd, err := ditsfile.Open(path, ditsfile.Options{MMap: true})
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()

		qn := dataset.NewNodeFromCells(-1, "query", q)
		k := 1 + rng.Intn(8)
		planes := enginePlanes(t, nodes, seed%3 == 0)
		for i, cl := range planes {
			// OJSP from the query, from a dataset's own cells, and from a
			// corner no source reaches (every center pruned).
			for _, oq := range []cellset.Set{q, nodes[int(seed)].Cells, cellBlock(1, 1, 3, 3)} {
				rs, err := cl.OverlapSearch(context.Background(), oq, k)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]pick, len(rs))
				for j, r := range rs {
					got[j] = pick{r.ID, r.Overlap}
				}
				if want := bruteTopK(nodes, oq, k); !slices.Equal(got, want) {
					t.Fatalf("seed %d k=%d plane %d: cluster OJSP %v, brute force %v", seed, k, i, got, want)
				}
			}
		}
		for _, delta := range []float64{0, 2.5, 6} {
			want, tied := bruteGreedy(nodes, q, delta, k)
			if tied {
				tiedSeeds++
			}
			for i, cl := range planes {
				for _, kk := range []int{k, 1} {
					res, err := cl.CoverageSearch(context.Background(), q, delta, kk)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]pick, len(res.Picked))
					for j, r := range res.Picked {
						got[j] = pick{r.ID, r.Overlap}
					}
					if w := want[:min(kk, len(want))]; !slices.Equal(got, w) {
						t.Fatalf("seed %d δ=%v k=%d plane %d: cluster picked %v, brute force %v", seed, delta, kk, i, got, w)
					}
				}
			}
			for name, idx := range map[string]*dits.Local{"heap": heap, "mmap": rd.Index()} {
				check := func(engine string, got []pick) {
					t.Helper()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d δ=%v k=%d %s index: %s picked %v, brute force %v", seed, delta, k, name, engine, got, want)
					}
				}
				check("DITSSearcher", picksOf(q, (&coverage.DITSSearcher{Index: idx}).Search(qn, delta, k).Picked))
				res, err := (&exec.Executor{}).CoverageSearch(context.Background(), idx, qn, delta, k)
				if err != nil {
					t.Fatal(err)
				}
				check("Executor.CoverageSearch", picksOf(q, res.Picked))
				srv := NewSourceServerWithGrid("s", idx)
				check("session (fetch absorbs)", sessionPicks(t, srv, 1, q, delta, k, false))
				check("session (Added)", sessionPicks(t, srv, 2, q, delta, k, true))
			}
		}
	}
	if tiedSeeds == 0 {
		t.Error("no seed made two candidates tie on the winning gain")
	}
}

// TestSessionOverlappingCalls: rounds and fetches of ONE session arriving
// at once — a retry overtaking the call it replaces — must serialize on the
// session (run under -race) and, deltas being unions, leave it answering
// exactly what a session opened on the final merged state answers.
func TestSessionOverlappingCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	_, _, servers := buildFederation(rng, 1, 150, DefaultOptions())
	srv := servers[0]
	ctx := context.Background()
	const delta = 6
	q := randomQuery(rng)
	if resp := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: 5, Base: cellset.FromSet(q), Delta: delta}); resp.SessionMiss {
		t.Fatal("session did not open")
	}
	merged := q
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		added := randomQuery(rng)
		id := i // datasets 0..7 exist in source 0's ID range
		merged = merged.Union(added).Union(srv.Index.Get(id).Cells)
		for dup := 0; dup < 2; dup++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: 5, Added: cellset.FromSet(added), Delta: delta})
			}()
			go func() {
				defer wg.Done()
				srv.handleFetchCells(ctx, FetchCellsRequest{Session: 5, ID: id})
			}()
		}
	}
	wg.Wait()
	got := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: 5, Delta: delta})
	want := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: 6, Base: cellset.FromSet(merged), Delta: delta})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after overlapping calls the session offers %+v, a fresh session on the same state %+v", got, want)
	}
}

// TestCoverageStopsAtZeroGain: a query that is a corpus dataset's own
// cells gets fewer than k picks and never that dataset — nor the subset of
// it, nor anything else that adds no cell — from every CJSP path: the
// paper's searcher and both baselines, the executor, a source session, and
// a center over the session and the stateless protocols.
func TestCoverageStopsAtZeroGain(t *testing.T) {
	g := worldGrid()
	const x, y = 50, 50
	nodes := []*dataset.Node{
		dataset.NewNodeFromCells(0, "self", cellBlock(x, y, 5, 5)),
		dataset.NewNodeFromCells(1, "inside", cellBlock(x+1, y+1, 2, 2)),
		dataset.NewNodeFromCells(2, "edge", cellBlock(x+5, y, 1, 5)),
		dataset.NewNodeFromCells(3, "overhang", cellBlock(x-2, y-2, 4, 4)),
		dataset.NewNodeFromCells(4, "far", cellBlock(x+40, y+40, 3, 3)),
	}
	q := nodes[0].Cells
	const delta, k = 2, 5
	want, _ := bruteGreedy(nodes, q, delta, k)
	if !slices.Equal(want, []pick{{3, 12}, {2, 5}}) {
		t.Fatalf("brute force picked %v, want the two datasets that add cells", want)
	}

	idx := dits.Build(g, nodes, 2)
	qn := dataset.NewNodeFromCells(-1, "query", q)
	got := map[string][]pick{
		"DITSSearcher": picksOf(q, (&coverage.DITSSearcher{Index: idx}).Search(qn, delta, k).Picked),
		"SG":           picksOf(q, (&coverage.SG{Nodes: nodes}).Search(qn, delta, k).Picked),
		"SG+DITS":      picksOf(q, (&coverage.SGDITS{Index: idx}).Search(qn, delta, k).Picked),
		"session":      sessionPicks(t, NewSourceServerWithGrid("s", idx), 1, q, delta, k, false),
	}
	res, err := (&exec.Executor{}).CoverageSearch(context.Background(), idx, qn, delta, k)
	if err != nil {
		t.Fatal(err)
	}
	got["Executor.CoverageSearch"] = picksOf(q, res.Picked)
	for _, sessions := range []bool{true, false} {
		c := NewCenter(g, Options{GlobalFilter: true, ClipQuery: true, Sessions: sessions})
		for i, part := range [][]*dataset.Node{nodes[:2], nodes[2:]} {
			srv := NewSourceServerWithGrid(fmt.Sprintf("s%d", i), dits.Build(g, part, 2))
			c.Register(srv.Summary(), &transport.InProc{Name: srv.Name, Handler: srv.Handler()})
		}
		cov, err := c.CoverageSearch(context.Background(), q, delta, k)
		if err != nil {
			t.Fatal(err)
		}
		var ps []pick
		for _, r := range cov.Picked {
			ps = append(ps, pick{r.ID, r.Overlap})
		}
		got[fmt.Sprintf("center (sessions %v)", sessions)] = ps
	}
	for engine, ps := range got {
		if !slices.Equal(ps, want) {
			t.Errorf("%s picked %v, brute force %v", engine, ps, want)
		}
	}
}

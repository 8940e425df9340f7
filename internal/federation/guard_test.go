package federation

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dits/internal/cellset"
	"dits/internal/geo"
	"dits/internal/search/coverage"
	"dits/internal/transport"
)

// guardSessions issues session IDs for the guard tests, apart from the
// centers' (whose base is random) and from each other's.
var guardSessions atomic.Uint64

// inGuard reports whether the cell (x, y) lies in one of the guard's spans.
func inGuard(guard []coverage.GuardSpan, x, y uint32) bool {
	for _, sp := range guard {
		if x >= sp.X0 && x <= sp.X1 && y >= sp.Y0 && y <= sp.Y1 {
			return true
		}
	}
	return false
}

// outsideGuard returns up to blobs clusters of cells scattered over the
// grid, less every cell that lies in the guard: a delta the guard says
// cannot change the offer it came with.
func outsideGuard(rng *rand.Rand, guard []coverage.GuardSpan, blobs int) cellset.Set {
	side := 1 << theta
	var ids []uint64
	for range blobs {
		cx, cy := rng.Intn(side), rng.Intn(side)
		for range 1 + rng.Intn(12) {
			x := uint32(clamp(cx+rng.Intn(7)-3, 0, side-1))
			y := uint32(clamp(cy+rng.Intn(7)-3, 0, side-1))
			if !inGuard(guard, x, y) {
				ids = append(ids, geo.ZEncode(x, y))
			}
		}
	}
	return cellset.New(ids...)
}

// sameOffer compares two offers' picks, not their guards.
func sameOffer(a, b Offer) bool {
	return a.Found == b.Found && a.ID == b.ID && a.Name == b.Name && a.Gain == b.Gain
}

// TestOfferGuardHolds drives source sessions by hand, as a center does —
// a Base round, then per pick a fetch that commits it and carries the next
// offer — at δ ∈ {0, 2, 6} through up to 7 picks. At every offer, the
// empty ones included, a session opened fresh on the merged state plus a
// delta with no cell in the offer's guard must offer exactly the same pick,
// and the guard holds at most coverage.GuardSpans spans.
func TestOfferGuardHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	_, _, servers := buildFederation(rand.New(rand.NewSource(92)), 3, 60, DefaultOptions())
	ctx := context.Background()
	offers, empty := 0, 0
	for _, delta := range []float64{0, 2, 6} {
		for trial := 0; trial < 12; trial++ {
			q := randomQuery(rng)
			for _, srv := range servers {
				sess := guardSessions.Add(1)
				merged := q
				var exclude []int
				o := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: sess, Base: cellset.FromSet(q), Delta: delta}).Offer
				for picks := 0; ; picks++ {
					if len(o.Guard) > coverage.GuardSpans {
						t.Fatalf("δ=%v: a guard of %d spans", delta, len(o.Guard))
					}
					if o.Found {
						offers++
					} else {
						empty++
					}
					for range 3 {
						d := outsideGuard(rng, o.Guard, 1+rng.Intn(6))
						fresh := guardSessions.Add(1)
						got := srv.handleCoverageRound(ctx, CoverageRoundRequest{
							Session: fresh, Base: cellset.FromSet(merged.Union(d)), Delta: delta, Exclude: exclude,
						}).Offer
						dropSession(srv, fresh)
						if !sameOffer(got, o) {
							t.Fatalf("δ=%v trial %d at %s after %d picks: %d cells outside the guard %v turned offer %+v into %+v",
								delta, trial, srv.Name, picks, d.Len(), o.Guard, o, got)
						}
					}
					if !o.Found || picks == 6 {
						break
					}
					exclude = append(exclude, o.ID)
					fetch := srv.handleFetchCells(ctx, FetchCellsRequest{Session: sess, ID: o.ID, Exclude: exclude})
					if !fetch.Committed {
						t.Fatalf("δ=%v trial %d at %s: the fetch of %d did not commit", delta, trial, srv.Name, o.ID)
					}
					merged = merged.Union(srv.Index.Get(o.ID).Cells)
					o = fetch.Next
				}
				dropSession(srv, sess)
			}
		}
	}
	if offers == 0 || empty == 0 {
		t.Fatalf("%d offers and %d empty offers checked: both must occur", offers, empty)
	}
}

// FuzzOfferGuard: a session that has made some picks is sent, as a
// round's Added, a random delta with no cell inside its offer's guard, at
// a δ that may be fractional. The re-asked offer must be the one it had.
func FuzzOfferGuard(f *testing.F) {
	var once sync.Once
	var servers []*SourceServer
	f.Add(int64(1), uint8(4), uint8(0), uint8(3))
	f.Add(int64(2), uint8(0), uint8(2), uint8(1))
	f.Add(int64(3), uint8(5), uint8(6), uint8(8))
	f.Add(int64(4), uint8(12), uint8(1), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, halfDelta, picks, blobs uint8) {
		once.Do(func() {
			_, _, servers = buildFederation(rand.New(rand.NewSource(93)), 3, 60, DefaultOptions())
		})
		rng := rand.New(rand.NewSource(seed))
		delta := float64(halfDelta%16) / 2
		srv := servers[rng.Intn(len(servers))]
		ctx := context.Background()
		sess := guardSessions.Add(1)
		defer dropSession(srv, sess)
		o := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: sess, Base: cellset.FromSet(randomQuery(rng)), Delta: delta}).Offer
		var exclude []int
		for range picks % 8 {
			if !o.Found {
				break
			}
			exclude = append(exclude, o.ID)
			o = srv.handleFetchCells(ctx, FetchCellsRequest{Session: sess, ID: o.ID, Exclude: exclude}).Next
		}
		d := outsideGuard(rng, o.Guard, 1+int(blobs%24))
		got := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: sess, Added: cellset.FromSet(d), Delta: delta, Exclude: exclude})
		if got.SessionMiss || !sameOffer(got.Offer, o) {
			t.Fatalf("δ=%v: %d cells outside the guard %v turned offer %+v into %+v", delta, d.Len(), o.Guard, o, got)
		}
	})
}

// FuzzGuardCeiling: a session that has made some picks is sent, as a
// round's Added, random cells inside or outside its offer's guard, at a δ
// that may be fractional. The re-asked offer's gain must be at most the
// larger of the last gain and the ceilings of every span the cells meet.
func FuzzGuardCeiling(f *testing.F) {
	var once sync.Once
	var servers []*SourceServer
	f.Add(int64(1), uint8(4), uint8(0), uint8(3))
	f.Add(int64(2), uint8(0), uint8(2), uint8(1))
	f.Add(int64(3), uint8(5), uint8(6), uint8(8))
	f.Add(int64(4), uint8(12), uint8(1), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, halfDelta, picks, blobs uint8) {
		once.Do(func() {
			_, _, servers = buildFederation(rand.New(rand.NewSource(93)), 3, 60, DefaultOptions())
		})
		rng := rand.New(rand.NewSource(seed))
		delta := float64(halfDelta%16) / 2
		srv := servers[rng.Intn(len(servers))]
		ctx := context.Background()
		sess := guardSessions.Add(1)
		defer dropSession(srv, sess)
		o := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: sess, Base: cellset.FromSet(randomQuery(rng)), Delta: delta}).Offer
		var exclude []int
		for range picks % 8 {
			if !o.Found {
				break
			}
			exclude = append(exclude, o.ID)
			o = srv.handleFetchCells(ctx, FetchCellsRequest{Session: sess, ID: o.ID, Exclude: exclude}).Next
		}
		// Blobs around a cell of a random span, or anywhere.
		side := 1 << theta
		within := func(lo, hi uint32) int { // a coordinate in [lo, hi] on the grid
			lo, hi = min(lo, uint32(side-1)), min(hi, uint32(side-1))
			return int(lo) + rng.Intn(int(hi-lo)+1)
		}
		var ids []uint64
		for range 1 + int(blobs%24) {
			cx, cy := rng.Intn(side), rng.Intn(side)
			if len(o.Guard) > 0 && rng.Intn(2) == 0 {
				sp := o.Guard[rng.Intn(len(o.Guard))]
				cx, cy = within(sp.X0, sp.X1), within(sp.Y0, sp.Y1)
			}
			for range 1 + rng.Intn(6) {
				ids = append(ids, geo.ZEncode(uint32(clamp(cx+rng.Intn(5)-2, 0, side-1)), uint32(clamp(cy+rng.Intn(5)-2, 0, side-1))))
			}
		}
		d := cellset.FromSet(cellset.New(ids...))
		bound, met := o.Gain, 0
		for _, sp := range o.Guard {
			if d.Meets(sp.Span) {
				bound, met = max(bound, sp.Ceil), met+1
			}
		}
		got := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: sess, Added: d, Delta: delta, Exclude: exclude})
		if got.SessionMiss || (got.Found && got.Gain > bound) {
			t.Fatalf("δ=%v: %d cells meeting %d of the guard's spans %v turned offer %+v into %+v, above the bound %d",
				delta, d.Len(), met, o.Guard, o, got.Offer, bound)
		}
	})
}

// TestSessionLifetime holds the session lifetime: a session ends at the
// next round its center sends the source. Run one at a time, queries
// leave at a source no session but that of the last query that sent it a
// round. Run by four goroutines at once, a source never holds more of the
// center's sessions than the queries in flight plus those ended since its
// last round there — at most eight — and one more query that reaches every
// source leaves each holding its session alone.
func TestSessionLifetime(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	_, pooled, servers := buildFederation(rand.New(rand.NewSource(96)), 3, 60, DefaultOptions())
	const workers = 4
	var mu sync.Mutex
	last := map[string]uint64{} // per source, the session of its last round
	center := NewCenter(worldGrid(), DefaultOptions())
	for _, srv := range servers {
		center.Register(srv.Summary(), &funcPeer{
			inner: &transport.InProc{Name: srv.Name, Handler: srv.Handler()},
			call: func(ctx context.Context, inner transport.Peer, method string, req, resp any) error {
				if r, ok := req.(*CoverageRoundRequest); ok {
					mu.Lock()
					last[srv.Name] = r.Session
					mu.Unlock()
				}
				if n := srv.NumSessions(); n > 2*workers {
					t.Errorf("%s holds %d sessions with at most %d queries in flight", srv.Name, n, workers)
				}
				return inner.Call(ctx, method, req, resp)
			},
		})
	}
	ctx := context.Background()
	onlyLast := func(when string) {
		t.Helper()
		for _, srv := range servers {
			for _, id := range heldSessions(srv) {
				if id != last[srv.Name] {
					t.Fatalf("%s: %s holds session %d, its last round's was %d", when, srv.Name, id, last[srv.Name])
				}
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		if _, err := center.CoverageSearch(ctx, randomQuery(rng), 3, 1+trial%6); err != nil {
			t.Fatal(err)
		}
		onlyLast("one query at a time")
	}

	queries := make([][]cellset.Set, workers)
	for w := range queries {
		for range 15 {
			queries[w] = append(queries[w], randomQuery(rng))
		}
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries[w] {
				if _, err := center.CoverageSearch(ctx, q, 3, 1+i%6); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, srv := range servers {
		if n := srv.NumSessions(); n > workers {
			t.Errorf("after the concurrent queries %s holds %d sessions, more than the %d that can have ended since its last round", srv.Name, n, workers)
		}
	}

	// One dataset of every source: each is a candidate from round one.
	perSource := len(pooled) / len(servers)
	var everywhere cellset.Set
	for s := range servers {
		everywhere = everywhere.Union(pooled[s*perSource].Cells)
	}
	if _, err := center.CoverageSearch(ctx, everywhere, 3, 2); err != nil {
		t.Fatal(err)
	}
	onlyLast("after one query that reaches every source")
	for _, srv := range servers {
		if n := srv.NumSessions(); n != 1 {
			t.Errorf("%s holds %d sessions after a query that reached it, want its one", srv.Name, n)
		}
	}
}

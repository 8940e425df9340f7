package federation

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/search/coverage"
	"dits/internal/transport"
	"dits/internal/workload"
)

// registerAll wires the given servers into a fresh center over InProc
// peers recording into the center's Metrics.
func registerAll(c *Center, servers []*SourceServer) {
	for _, srv := range servers {
		c.Register(srv.Summary(), &transport.InProc{
			Name: srv.Name, Handler: srv.Handler(), Metrics: c.Metrics,
		})
	}
}

// TestSessionStatelessParity is the protocol-parity gate: the session
// protocol (delta rounds + two-phase fetch) must produce byte-identical
// Picked and Coverage to the stateless protocol on the same federation,
// across query shapes, k, and δ.
func TestSessionStatelessParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	_, _, servers := buildFederation(rand.New(rand.NewSource(22)), 4, 120, DefaultOptions())

	stateless := NewCenter(worldGrid(), Options{GlobalFilter: true, ClipQuery: true})
	session := NewCenter(worldGrid(), DefaultOptions())
	registerAll(stateless, servers)
	registerAll(session, servers)

	for trial := 0; trial < 30; trial++ {
		q := randomQuery(rng)
		for _, delta := range []float64{0, 2, 6} {
			for _, k := range []int{1, 3, 7} {
				want, err := stateless.CoverageSearch(context.Background(), q, delta, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := session.CoverageSearch(context.Background(), q, delta, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d δ=%v k=%d: session %+v, stateless %+v",
						trial, delta, k, got, want)
				}
			}
		}
	}
	// A center that runs one query at a time leaves at most its last
	// query's session at a source: each round closes the ones before.
	for _, srv := range servers {
		if n := srv.NumSessions(); n > 1 {
			t.Errorf("source %s still holds %d sessions", srv.Name, n)
		}
	}
}

// held reports whether srv holds the session.
func held(srv *SourceServer, sess uint64) bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	_, ok := srv.sessions[sess]
	return ok
}

// heldSessions returns the sessions srv holds.
func heldSessions(srv *SourceServer) []uint64 {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return slices.Collect(maps.Keys(srv.sessions))
}

// dropSession closes a session at srv the way a center does: a round that
// carries it in Close (and asks for no session of its own).
func dropSession(srv *SourceServer, sess uint64) {
	srv.handleCoverageRound(context.Background(), CoverageRoundRequest{Close: []uint64{sess}})
}

// TestSessionCutsCoverageBytes asserts the point of the refactor: the
// session protocol ships fewer bytes per CJSP query than the stateless
// one, and losers never ship cell sets back: there is exactly one
// coverage.fetch per greedy pick but the k-th, and no round response is
// larger than the largest offer without cells the codec can write.
func TestSessionCutsCoverageBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	_, pooled, servers := buildFederation(rand.New(rand.NewSource(24)), 4, 120, DefaultOptions())

	stateless := NewCenter(worldGrid(), Options{GlobalFilter: true, ClipQuery: true})
	session := NewCenter(worldGrid(), DefaultOptions())
	registerAll(stateless, servers)
	var mu sync.Mutex
	var log []loggedCall
	for _, srv := range servers {
		session.Register(srv.Summary(), &logPeer{
			inner: &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: session.Metrics},
			src:   srv.Name, mu: &mu, log: &log,
		})
	}

	const k = 6
	picks, full := 0, 0
	for trial := 0; trial < 15; trial++ {
		q := randomQuery(rng)
		a, err := stateless.CoverageSearch(context.Background(), q, 4, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := session.CoverageSearch(context.Background(), q, 4, k); err != nil {
			t.Fatal(err)
		}
		picks += len(a.Picked)
		if len(a.Picked) == k {
			full++
		}
	}
	sb, tb := session.Metrics.Bytes(), stateless.Metrics.Bytes()
	if sb >= tb {
		t.Errorf("session protocol shipped %d bytes >= stateless %d", sb, tb)
	}
	pm := session.Metrics.PerMethod()
	if got, want := pm[MethodFetchCells].Calls, int64(picks-full); full == 0 || got != want {
		t.Errorf("coverage.fetch calls = %d, want one per pick but the k-th (%d picks, %d queries reached k)", got, picks, full)
	}
	if pm[MethodCoverage].Calls != 0 {
		t.Errorf("session center used the stateless method %d times", pm[MethodCoverage].Calls)
	}
	// Round responses carry (ID, Gain) and a guard only. The largest offer
	// the codec can write without cells has the widest varints, the longest
	// name the sources hold, and GuardSpans spans at the widest coordinates
	// and ceilings (a gain of 2^62 takes ten bytes, and the ceilings above
	// it nine each).
	worst := Offer{Found: true, ID: math.MinInt, Gain: 1 << 62}
	for _, nd := range pooled {
		if len(nd.Name) > len(worst.Name) {
			worst.Name = nd.Name
		}
	}
	for range coverage.GuardSpans {
		worst.Guard = append(worst.Guard, coverage.GuardSpan{
			Span: cellset.Span{X0: math.MaxUint32, Y0: math.MaxUint32, X1: math.MaxUint32, Y1: math.MaxUint32}, Ceil: math.MaxInt,
		})
	}
	limit := len(appendOffer([]byte{msgCoverageRoundCeilResp, 1, 1}, &worst)) // type, SessionMiss, Stateless
	rounds := 0
	for _, c := range log {
		if c.method != MethodCoverageRound {
			continue
		}
		rounds++
		wire, err := BinaryCodec.Append(nil, c.resp)
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) > limit {
			t.Errorf("a round response of %d bytes, more than the largest cell-free offer (%d) — losers are shipping cells?", len(wire), limit)
		}
	}
	if rounds == 0 || int64(rounds) != pm[MethodCoverageRound].Calls {
		t.Errorf("%d round responses logged, %d calls counted", rounds, pm[MethodCoverageRound].Calls)
	}
}

// droppingPeer simulates a source that loses its session state between
// center calls: before forwarding a round (or fetch, per mode), it drops
// the session at the server, forcing the center onto the stateless
// fallback (SessionMiss) or the Committed=false re-open path.
type droppingPeer struct {
	inner transport.Peer
	srv   *SourceServer
	mode  string // method whose sessions get dropped first
}

func (p *droppingPeer) Call(ctx context.Context, method string, req, resp any) error {
	if method == p.mode {
		var sess uint64
		switch r := req.(type) {
		case *CoverageRoundRequest:
			sess = r.Session
		case *FetchCellsRequest:
			sess = r.Session
		}
		dropSession(p.srv, sess)
	}
	return p.inner.Call(ctx, method, req, resp)
}

func (p *droppingPeer) Close() error { return p.inner.Close() }

// TestSessionMissFallback drops the session before every round and before
// every fetch (two separate federations) and requires results identical to
// the stateless protocol: losing session state may cost bytes, never
// correctness.
func TestSessionMissFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	_, _, servers := buildFederation(rand.New(rand.NewSource(26)), 3, 90, DefaultOptions())
	stateless := NewCenter(worldGrid(), Options{GlobalFilter: true, ClipQuery: true})
	registerAll(stateless, servers)

	for _, mode := range []string{MethodCoverageRound, MethodFetchCells} {
		center := NewCenter(worldGrid(), DefaultOptions())
		for _, srv := range servers {
			center.Register(srv.Summary(), &droppingPeer{
				inner: &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: center.Metrics},
				srv:   srv,
				mode:  mode,
			})
		}
		for trial := 0; trial < 12; trial++ {
			q := randomQuery(rng)
			want, err := stateless.CoverageSearch(context.Background(), q, 3, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := center.CoverageSearch(context.Background(), q, 3, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mode %s trial %d: dropped-session result %+v, want %+v",
					mode, trial, got, want)
			}
		}
	}
}

// loggedCall is one exchange a center made, as its peer saw it.
type loggedCall struct {
	src, method string
	req, resp   any
}

// logPeer appends every call it carries, answered, to a log shared by a
// center's peers. Calls of one round's fan-out may overlap.
type logPeer struct {
	inner transport.Peer
	src   string
	mu    *sync.Mutex
	log   *[]loggedCall
}

func (p *logPeer) Call(ctx context.Context, method string, req, resp any) error {
	err := p.inner.Call(ctx, method, req, resp)
	p.mu.Lock()
	*p.log = append(*p.log, loggedCall{p.src, method, req, resp})
	p.mu.Unlock()
	return err
}

func (p *logPeer) Close() error { return p.inner.Close() }

// TestCoverageMessageBudget holds the session engine to the messages a
// round needs, call by call, on InProc links. Every source a round asks
// has a cell in its cached offer's guard, or holds no valid offer (none
// yet, a session lost, or a fetch that did not commit); a source a round
// does not ask holds back no cell in its guard, or its bound — the larger
// of its offer's gain and the ceilings of the spans its held-back cells
// meet — stays below the winner's gain. A source that just won a committed
// fetch is not asked in the next round (the fetch carried its next offer);
// there is one coverage.fetch per pick but the k-th, which is not fetched;
// and once the query has returned, no source holds a session but that of
// the last query that sent it a round. Queries that reach k picks and
// queries that run out of connected datasets first are both covered, with
// sessions intact and under both of droppingPeer's modes.
func TestCoverageMessageBudget(t *testing.T) {
	_, _, servers := buildFederation(rand.New(rand.NewSource(71)), 3, 60, DefaultOptions())
	for _, mode := range []string{"", MethodCoverageRound, MethodFetchCells} {
		var mu sync.Mutex
		var log []loggedCall
		center := NewCenter(worldGrid(), DefaultOptions())
		for _, srv := range servers {
			center.Register(srv.Summary(), &logPeer{
				inner: &droppingPeer{
					inner: &transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: center.Metrics},
					srv:   srv,
					mode:  mode,
				},
				src: srv.Name, mu: &mu, log: &log,
			})
		}
		rng := rand.New(rand.NewSource(72))
		full, short, skipped, bounded := 0, 0, 0, 0
		lastSess := map[string]uint64{} // per source, the session of the last round it got
		others := map[uint64]bool{}     // sessions the previous modes' centers left
		for _, srv := range servers {
			for _, id := range heldSessions(srv) {
				others[id] = true
			}
		}
		for trial := 0; trial < 40; trial++ {
			q := randomQuery(rng)
			k := []int{1, 3, 5, 60}[trial%4]
			log = nil
			res, err := center.CoverageSearch(context.Background(), q, 3, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Picked) == k {
				full++
			} else {
				short++
			}
			at := func(c loggedCall) string {
				return fmt.Sprintf("mode %q trial %d k=%d (%d picks): %s to %s", mode, trial, k, len(res.Picked), c.method, c.src)
			}
			// The center's view of each source's cached offer, replayed
			// from the log: its guard and gain, whether it is valid, and
			// whether a winner's cells have landed in the guard since, with
			// the bound they leave.
			type cached struct {
				guard    []coverage.GuardSpan
				gain     int
				valid    bool
				hit      bool
				bound    int
				answered bool // in this round
			}
			views := map[string]*cached{}
			view := func(src string) *cached {
				if views[src] == nil {
					views[src] = &cached{}
				}
				return views[src]
			}
			offered := func(v *cached, o Offer) {
				v.guard, v.gain, v.valid, v.hit, v.bound = o.Guard, o.Gain, true, false, o.Gain
			}
			// pick checks the n-th pick, of a dataset gaining gain, against
			// every source left unasked.
			picks := 0
			pick := func(gain int) {
				picks++
				for src, v := range views {
					if v.valid && v.hit && v.bound >= gain {
						t.Errorf("mode %q trial %d k=%d: pick %d (gain %d) made while %s holds a cell in its guard unasked, bound %d",
							mode, trial, k, picks, gain, src, v.bound)
					}
					if !v.answered && v.valid {
						skipped++
						if v.hit {
							bounded++
						}
					}
					v.answered = false
				}
			}
			fetches := 0
			committedWinner := "" // won the last fetch, committed
			for _, c := range log {
				switch c.method {
				case MethodCoverageRound:
					req, resp := c.req.(*CoverageRoundRequest), c.resp.(*CoverageRoundResponse)
					lastSess[c.src] = req.Session
					if c.src == committedWinner {
						t.Errorf("%s: asked again in the round after its committed fetch", at(c))
					}
					v := view(c.src)
					if v.valid && !v.hit {
						t.Errorf("%s: asked while no cell it was not sent lies in its offer's guard %v", at(c), v.guard)
					}
					offered(v, resp.Offer)
					v.valid, v.answered = !resp.SessionMiss, true
				case MethodFetchCells:
					fetches++
					if fetches >= k {
						t.Errorf("%s: the k-th pick was fetched", at(c))
					}
					resp := c.resp.(*FetchCellsResponse)
					w := view(c.src)
					pick(w.gain)
					committedWinner, w.valid = "", false
					if resp.Committed {
						committedWinner = c.src
						offered(w, resp.Next)
					}
					for src, v := range views {
						if src == c.src || !v.valid {
							continue
						}
						for _, sp := range v.guard {
							if resp.Cells.Meets(sp.Span) {
								v.hit, v.bound = true, max(v.bound, sp.Ceil)
							}
						}
					}
				default:
					t.Errorf("%s: unexpected method", at(c))
				}
			}
			want := len(res.Picked)
			if want == k {
				want-- // the k-th pick is made without a fetch
				pick(res.Picked[k-1].Overlap)
			}
			if fetches != want {
				t.Errorf("mode %q trial %d: %d coverage.fetch calls for %d picks, want %d", mode, trial, fetches, len(res.Picked), want)
			}
			for _, srv := range servers {
				for _, id := range heldSessions(srv) {
					if id != lastSess[srv.Name] && !others[id] {
						t.Fatalf("mode %q trial %d: source %s holds session %d after a later query's round", mode, trial, srv.Name, id)
					}
				}
			}
		}
		if full == 0 || short == 0 {
			t.Errorf("mode %q: %d queries reached k, %d stopped short; both must occur", mode, full, short)
		}
		if mode == "" && (skipped == 0 || bounded == 0) {
			t.Errorf("%d picks kept a source's cached offer unasked, %d with a cell in its guard: the guards and their bounds must each skip one", skipped, bounded)
		}
	}
}

// TestSourceSessionEviction drives the session table directly: the cap
// holds, idle sessions are reclaimed by TTL, and a round's close list
// removes state before the round takes a slot.
func TestSourceSessionEviction(t *testing.T) {
	g := worldGrid()
	nd := dataset.NewNodeFromCells(1, "d", cellset.New(geo.ZEncode(3, 3), geo.ZEncode(2, 2)))
	srv := NewSourceServerWithGrid("s", dits.Build(g, []*dataset.Node{nd}, 4))
	srv.MaxSessions = 4
	srv.SessionTTL = time.Minute
	now := time.Unix(1000, 0)
	srv.now = func() time.Time { return now }

	base := cellset.New(geo.ZEncode(3, 3), geo.ZEncode(4, 4))
	for id := uint64(1); id <= 10; id++ {
		resp := srv.handleCoverageRound(context.Background(), CoverageRoundRequest{Session: id, Base: cellset.FromSet(base), Delta: 2})
		if wantStateless := id > 4; resp.Stateless != wantStateless {
			t.Errorf("session %d: Stateless = %v, want %v", id, resp.Stateless, wantStateless)
		}
		if !resp.Found {
			t.Errorf("session %d: overflow round lost the answer", id)
		}
	}
	if n := srv.NumSessions(); n != 4 {
		t.Errorf("session table holds %d, want the 4 stored before the cap", n)
	}

	// All sessions idle past the TTL are reclaimed on the next insert.
	now = now.Add(2 * time.Minute)
	srv.handleCoverageRound(context.Background(), CoverageRoundRequest{Session: 99, Base: cellset.FromSet(base), Delta: 2})
	if n := srv.NumSessions(); n != 1 {
		t.Errorf("TTL sweep left %d sessions, want 1", n)
	}

	// A round against an evicted session reports the miss instead of
	// silently answering from stale state.
	resp := srv.handleCoverageRound(context.Background(), CoverageRoundRequest{Session: 1, Added: cellset.FromSet(base), Delta: 2})
	if !resp.SessionMiss {
		t.Error("round against evicted session should report SessionMiss")
	}

	// A round's close list drops its sessions first: with the table at the
	// cap (99 to 102), a round that closes 99 and 100 stores its own.
	for id := uint64(100); id < 103; id++ {
		srv.handleCoverageRound(context.Background(), CoverageRoundRequest{Session: id, Base: cellset.FromSet(base), Delta: 2})
	}
	now = now.Add(30 * time.Second) // within the TTL: nothing is swept
	resp = srv.handleCoverageRound(context.Background(), CoverageRoundRequest{
		Session: 103, Base: cellset.FromSet(base), Delta: 2, Close: []uint64{99, 100, 7},
	})
	if resp.Stateless || !held(srv, 103) {
		t.Errorf("the round closing a session at the cap did not store its own: %+v", resp)
	}
	if held(srv, 99) || held(srv, 100) {
		t.Error("a round's close list left its sessions")
	}
	if n := srv.NumSessions(); n != 3 {
		t.Errorf("close left %d sessions, want 101, 102 and 103", n)
	}
}

// flakyPeer works until failAfter calls, then errors forever — a source
// that dies mid-session.
type flakyPeer struct {
	inner     transport.Peer
	calls     atomic.Int64
	failAfter int64
}

func (p *flakyPeer) Call(ctx context.Context, method string, req, resp any) error {
	if p.calls.Add(1) > p.failAfter {
		return &transport.RemoteError{Source: "flaky", Msg: "link down"}
	}
	return p.inner.Call(ctx, method, req, resp)
}

func (p *flakyPeer) Close() error { return p.inner.Close() }

// TestDegradedSkipFailed: under the tolerant policy a dead source is
// skipped, its failure is visible in Metrics, and the query answers from
// the survivors; under fail-fast (the default) the same federation errors.
func TestDegradedSkipFailed(t *testing.T) {
	g := worldGrid()
	nd := dataset.NewNodeFromCells(1, "only", cellset.New(geo.ZEncode(7, 7), geo.ZEncode(6, 6)))
	idx := dits.Build(g, []*dataset.Node{nd}, 4)

	build := func(policy FailurePolicy, sessions bool) *Center {
		c := NewCenter(g, Options{Sessions: sessions, OnSourceError: policy})
		srv := NewSourceServerWithGrid("ok", idx)
		c.Register(srv.Summary(), &transport.InProc{Name: "ok", Handler: srv.Handler(), Metrics: c.Metrics})
		c.Register(dits.SourceSummary{Name: "zz-bad", Rect: geo.Rect{MaxX: 1, MaxY: 1}}, failingPeer{})
		return c
	}
	q := cellset.New(geo.ZEncode(7, 7), geo.ZEncode(8, 8))

	for _, sessions := range []bool{true, false} {
		c := build(SkipFailed, sessions)
		rs, err := c.OverlapSearch(context.Background(), q, 3)
		if err != nil {
			t.Fatalf("sessions=%v: tolerant overlap errored: %v", sessions, err)
		}
		if len(rs) != 1 || rs[0].Source != "ok" {
			t.Fatalf("sessions=%v: overlap results = %v", sessions, rs)
		}
		cov, err := c.CoverageSearch(context.Background(), q, 2, 3)
		if err != nil {
			t.Fatalf("sessions=%v: tolerant coverage errored: %v", sessions, err)
		}
		if len(cov.Picked) != 1 || cov.Picked[0].Source != "ok" {
			t.Fatalf("sessions=%v: coverage picked %v", sessions, cov.Picked)
		}
		if c.Metrics.Failures()["zz-bad"] == 0 {
			t.Errorf("sessions=%v: failure not recorded: %v", sessions, c.Metrics.Failures())
		}

		strict := build(FailFast, sessions)
		if _, err := strict.OverlapSearch(context.Background(), q, 3); err == nil {
			t.Errorf("sessions=%v: fail-fast overlap should error", sessions)
		}
		if _, err := strict.CoverageSearch(context.Background(), q, 2, 3); err == nil {
			t.Errorf("sessions=%v: fail-fast coverage should error", sessions)
		}
	}
}

// TestDegradedMidSession kills a source after it has already answered
// rounds: the tolerant center finishes on the survivors and records the
// failure.
func TestDegradedMidSession(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	_, _, servers := buildFederation(rng, 3, 80, DefaultOptions())
	center := NewCenter(worldGrid(), Options{
		GlobalFilter: true, ClipQuery: true, Sessions: true, OnSourceError: SkipFailed,
	})
	for i, srv := range servers {
		peer := transport.Peer(&transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: center.Metrics})
		if i == 0 {
			peer = &flakyPeer{inner: peer, failAfter: 2}
		}
		center.Register(srv.Summary(), peer)
	}
	sawFailure := false
	for trial := 0; trial < 8; trial++ {
		q := randomQuery(rng)
		if _, err := center.CoverageSearch(context.Background(), q, 3, 5); err != nil {
			t.Fatalf("trial %d: tolerant search errored: %v", trial, err)
		}
		if center.Metrics.Failures()[servers[0].Name] > 0 {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Error("flaky source never recorded a failure")
	}
}

// recoveringPeer fails its first failFirst calls, then works — a source
// with one transient outage.
type recoveringPeer struct {
	inner     transport.Peer
	calls     int
	failFirst int
}

func (p *recoveringPeer) Call(ctx context.Context, method string, req, resp any) error {
	p.calls++
	if p.calls <= p.failFirst {
		return &transport.RemoteError{Source: "recovering", Msg: "transient outage"}
	}
	return p.inner.Call(ctx, method, req, resp)
}

func (p *recoveringPeer) Close() error { return p.inner.Close() }

// TestDegradedResultsAreNotCached: a tolerant answer computed while a
// source was down must not poison the result cache — once the source
// recovers, the same query must see its data again.
func TestDegradedResultsAreNotCached(t *testing.T) {
	g := worldGrid()
	mk := func(name string, id int, x, y uint32) *SourceServer {
		nd := dataset.NewNodeFromCells(id, name+"-d", cellset.New(geo.ZEncode(x, y)))
		return NewSourceServerWithGrid(name, dits.Build(g, []*dataset.Node{nd}, 4))
	}
	ok, flaky := mk("aa-ok", 1, 7, 7), mk("bb-flaky", 2, 9, 9)
	center := NewCenter(g, Options{Sessions: true, OnSourceError: SkipFailed})
	center.SetCache(cache.New(64))
	center.Register(ok.Summary(), &transport.InProc{Name: ok.Name, Handler: ok.Handler(), Metrics: center.Metrics})
	center.Register(flaky.Summary(), &recoveringPeer{
		inner:     &transport.InProc{Name: flaky.Name, Handler: flaky.Handler(), Metrics: center.Metrics},
		failFirst: 1,
	})

	q := cellset.New(geo.ZEncode(7, 7), geo.ZEncode(9, 9))
	first, err := center.OverlapSearch(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0].Source != "aa-ok" {
		t.Fatalf("degraded query = %v, want aa-ok only", first)
	}
	second, err := center.OverlapSearch(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 2 {
		t.Fatalf("post-recovery query = %v — the degraded answer was cached", second)
	}
	// The healthy answer is cached from here on.
	third, err := center.OverlapSearch(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(third) != 2 {
		t.Fatalf("cached healthy query = %v", third)
	}
}

// churningPeer unregisters another source from the center the first time
// it is called — membership churn landing in the middle of a query's
// fan-out.
type churningPeer struct {
	inner  transport.Peer
	center *Center
	victim string
	done   bool
}

func (p *churningPeer) Call(ctx context.Context, method string, req, resp any) error {
	if !p.done {
		p.done = true
		p.center.Unregister(p.victim)
	}
	return p.inner.Call(ctx, method, req, resp)
}

func (p *churningPeer) Close() error { return p.inner.Close() }

// TestEpochPinningMidQuery: a query that already started must keep the
// member set it pinned, even when a source unregisters while the query is
// in flight; the next query sees the new epoch.
func TestEpochPinningMidQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	center, pooled, servers := buildFederation(rng, 3, 80, Options{Sessions: true})
	victim := servers[len(servers)-1].Name

	// Re-register the first source behind a churning peer that drops the
	// victim mid-query.
	first := servers[0]
	gen := center.Generation()
	center.Register(first.Summary(), &churningPeer{
		inner:  &transport.InProc{Name: first.Name, Handler: first.Handler(), Metrics: center.Metrics},
		center: center,
		victim: victim,
	})
	if center.Generation() != gen+1 {
		t.Fatalf("re-register did not advance the epoch: %d -> %d", gen, center.Generation())
	}

	// A query containing one whole dataset from every source, so every
	// source — the victim included — must contribute a result.
	perSource := len(pooled) / len(servers)
	var q cellset.Set
	for s := range servers {
		q = q.Union(pooled[s*perSource].Cells)
	}
	during, err := center.OverlapSearch(context.Background(), q, 40)
	if err != nil {
		t.Fatal(err)
	}
	after, err := center.OverlapSearch(context.Background(), q, 40)
	if err != nil {
		t.Fatal(err)
	}
	fromVictim := func(rs []SourceResult) bool {
		for _, r := range rs {
			if r.Source == victim {
				return true
			}
		}
		return false
	}
	// The victim answered the in-flight query (pinned epoch includes it)…
	if !fromVictim(during) {
		t.Fatal("pinned-epoch query returned nothing from the victim source")
	}
	// …and is gone from queries started after the churn.
	if fromVictim(after) {
		t.Error("post-churn query still returned results from the unregistered source")
	}
	if center.NumSources() != len(servers)-1 {
		t.Errorf("NumSources = %d, want %d", center.NumSources(), len(servers)-1)
	}
}

// TestCoverageEpochPinningMidQuery is the CJSP variant: churn lands
// between greedy rounds and the pinned epoch must keep the result
// identical to a churn-free federation of the original members.
func TestCoverageEpochPinningMidQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	_, _, servers := buildFederation(rand.New(rand.NewSource(30)), 3, 80, DefaultOptions())

	baseline := NewCenter(worldGrid(), DefaultOptions())
	registerAll(baseline, servers)

	center := NewCenter(worldGrid(), DefaultOptions())
	victim := servers[len(servers)-1].Name
	for i, srv := range servers {
		peer := transport.Peer(&transport.InProc{Name: srv.Name, Handler: srv.Handler(), Metrics: center.Metrics})
		if i == 0 {
			peer = &churningPeer{inner: peer, center: center, victim: victim}
		}
		center.Register(srv.Summary(), peer)
	}

	q := randomQuery(rng)
	want, err := baseline.CoverageSearch(context.Background(), q, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := center.CoverageSearch(context.Background(), q, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("churn-during-query changed the result: %+v, want %+v", got, want)
	}
}

// cjspSmallFixture is cjsp-small in miniature: its five sources (scale
// 0.05, data seed 1, world grid at θ = 12, leaf capacity 30) and 8 queries,
// each a dataset translated by two cells, to be searched at δ = 10.
func cjspSmallFixture() (geo.Grid, []*SourceServer, []cellset.Set) {
	g := geo.NewGrid(12, geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90})
	var servers []*SourceServer
	var nodes []*dataset.Node
	for _, src := range workload.GenerateAll(0.05, 1) {
		nds := src.Nodes(g)
		servers = append(servers, NewSourceServerWithGrid(src.Name, dits.Build(g, nds, 30)))
		nodes = append(nodes, nds...)
	}
	rng := rand.New(rand.NewSource(61))
	var queries []cellset.Set
	for range 8 {
		var ids []uint64
		for _, c := range nodes[rng.Intn(len(nodes))].Cells {
			x, y := geo.ZDecode(c)
			ids = append(ids, geo.ZEncode(x+2, y+2))
		}
		queries = append(queries, cellset.New(ids...))
	}
	return g, servers, queries
}

// BenchmarkCoverageSession runs the session engine end to end on
// cjspSmallFixture over InProc links: one op is the fixture's 8 CJSPs at
// k = 5 through one center. msgs/op counts every exchange the center made.
func BenchmarkCoverageSession(b *testing.B) {
	g, servers, queries := cjspSmallFixture()
	c := NewCenter(g, DefaultOptions())
	registerAll(c, servers)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, q := range queries {
			if _, err := c.CoverageSearch(ctx, q, 10, 5); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(c.Metrics.Messages())/float64(b.N), "msgs/op")
}

// TestCoverageRoundAllocBudget holds the bytes a source allocates per offer
// to a budget, on sessions shaped like cjsp-small's (cjspSmallFixture): per
// query a session at every source, opened by a Base coverage.round, then per
// pick up to k = 5 a coverage.fetch that commits the pick and carries the
// next offer. An offer is the Base round or such a fetch. The budget is what
// an offer allocates with each session's connectivity index rebuilt every
// round from the container delta in the buffers its first round grew
// (18,435 B here; 27,242 to 31,436 B under the race detector, whose
// sync.Pool drops a quarter of the build scratch put back), the highest
// plus 10 %. Sessions run one after another in line, and the least of
// three passes is taken: allocations elsewhere in the process can only
// raise one.
func TestCoverageRoundAllocBudget(t *testing.T) {
	const budget = 31436 * 11 / 10
	_, servers, queries := cjspSmallFixture()
	ctx := context.Background()
	perOffer, offers := math.Inf(1), 0
	for pass := uint64(0); pass < 3; pass++ {
		var bytes uint64
		offers = 0
		measure := func(f func() Offer) Offer {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			o := f()
			runtime.ReadMemStats(&ms1)
			bytes += ms1.TotalAlloc - ms0.TotalAlloc
			offers++
			return o
		}
		for i, q := range queries {
			sess := pass<<8 | uint64(i)
			for _, srv := range servers {
				o := measure(func() Offer {
					return srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: sess, Base: cellset.FromSet(q), Delta: 10}).Offer
				})
				var exclude []int
				for o.Found && len(exclude) < 4 {
					exclude = append(exclude, o.ID)
					o = measure(func() Offer {
						return srv.handleFetchCells(ctx, FetchCellsRequest{Session: sess, ID: o.ID, Exclude: exclude}).Next
					})
				}
				dropSession(srv, sess)
			}
		}
		perOffer = min(perOffer, float64(bytes)/float64(offers))
	}
	t.Logf("%.0f B per offer over %d offers, budget %d B", perOffer, offers, budget)
	if perOffer > budget {
		t.Fatalf("an offer allocates %.0f B, over the budget of %d B", perOffer, budget)
	}
}

// TestLazyPickEvaluations counts the exact gain evaluations a source's
// sessions make per offer on cjspSmallFixture, as TestCoverageRoundAllocBudget
// drives them: per query and source a Base round, then up to k-1 fetches
// each carrying the next offer. An evaluation is against the whole merged
// set (a dataset seen for the first time) or incremental (from the cells
// that arrived since its bound was exact). The scan every offer ran before
// bounds were kept made 14.5 evaluations per offer here at k = 5 and 59.5
// at k = 60, all of them against the whole merged set.
func TestLazyPickEvaluations(t *testing.T) {
	_, servers, queries := cjspSmallFixture()
	ctx := context.Background()
	for _, k := range []int{1, 3, 5, 60} {
		var whole, incremental, offers int
		for i, q := range queries {
			sess := uint64(k)<<8 | uint64(i)
			for _, srv := range servers {
				o := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: sess, Base: cellset.FromSet(q), Delta: 10}).Offer
				offers++
				var exclude []int
				for o.Found && len(exclude) < k-1 {
					exclude = append(exclude, o.ID)
					o = srv.handleFetchCells(ctx, FetchCellsRequest{Session: sess, ID: o.ID, Exclude: exclude}).Next
					offers++
				}
				srv.mu.Lock()
				p := &srv.sessions[sess].pick
				srv.mu.Unlock()
				whole, incremental = whole+p.Whole, incremental+p.Incremental
				dropSession(srv, sess)
			}
		}
		perWhole, perTotal := float64(whole)/float64(offers), float64(whole+incremental)/float64(offers)
		t.Logf("k = %d: %d offers, %.2f evaluations per offer, %.2f of them against the whole merged set", k, offers, perTotal, perWhole)
		if k == 5 && perWhole > 2.0 {
			t.Errorf("k = 5: %.2f whole-state evaluations per offer, want at most 2.0", perWhole)
		}
		if k == 60 && perTotal > 8 {
			t.Errorf("k = 60: %.2f evaluations per offer, want at most 8", perTotal)
		}
	}
}

// TestConnectProbeCounts pins the work the connectivity walks of a
// source's sessions do on cjspSmallFixture, driven as TestLazyPickEvaluations
// drives them at k = 5: datasets examined at verified leaves, skipped as
// already connected, pruned by bound or MBR, rejected by NearRect, and
// checked cell by cell (with the hits). A faster connectivity kernel must
// do exactly this work; the numbers were taken before the index was built
// from the container delta and reproduced after.
func TestConnectProbeCounts(t *testing.T) {
	_, servers, queries := cjspSmallFixture()
	ctx := context.Background()
	var got coverage.ConnectCounts
	for i, q := range queries {
		sess := uint64(i) + 1
		for _, srv := range servers {
			o := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: sess, Base: cellset.FromSet(q), Delta: 10}).Offer
			var exclude []int
			for o.Found && len(exclude) < 4 {
				exclude = append(exclude, o.ID)
				o = srv.handleFetchCells(ctx, FetchCellsRequest{Session: sess, ID: o.ID, Exclude: exclude}).Next
			}
			srv.mu.Lock()
			c := srv.sessions[sess].pick.Connected.ConnectCounts
			srv.mu.Unlock()
			got.Examined += c.Examined
			got.Known += c.Known
			got.Pruned += c.Pruned
			got.Far += c.Far
			got.Probes += c.Probes
			got.Hits += c.Hits
			dropSession(srv, sess)
		}
	}
	want := coverage.ConnectCounts{Examined: 10496, Known: 4013, Pruned: 3162, Far: 175, Probes: 3146, Hits: 2180}
	if got != want {
		t.Fatalf("connectivity walks did %+v, want %+v", got, want)
	}
}

// TestSessionRecoversFromCancelledWalk: a round whose caller gave up ends
// its connectivity walk with the context's error. The session must not
// keep that connected set as if it were complete — a walk cut short would
// miss datasets for the rest of the query, and the lazy pick would trust
// bounds that assume it saw them all — so the next round answers what a
// session opened fresh answers. The cancelled round's own answer is void:
// any cell meets its guard, and the bound that leaves is unbounded.
func TestSessionRecoversFromCancelledWalk(t *testing.T) {
	_, servers, queries := cjspSmallFixture()
	ctx := context.Background()
	gone, cancel := context.WithCancel(ctx)
	cancel()
	offered := 0
	for i, q := range queries {
		for _, srv := range servers {
			sess := uint64(i) + 1
			void := srv.handleCoverageRound(gone, CoverageRoundRequest{Session: sess, Base: cellset.FromSet(q), Delta: 10})
			for _, cell := range []uint64{q[0], geo.ZEncode(math.MaxUint32, math.MaxUint32)} {
				bound, one := void.Gain, cellset.FromSet(cellset.New(cell))
				for _, sp := range void.Guard {
					if one.Meets(sp.Span) {
						bound = max(bound, sp.Ceil)
					}
				}
				if void.Found || bound != math.MaxInt {
					t.Fatalf("query %d at %s: a cancelled round answered %+v, whose bound over cell %d is %d: want no offer and no bound", i, srv.Name, void.Offer, cell, bound)
				}
			}
			got := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: sess, Delta: 10})
			want := srv.handleCoverageRound(ctx, CoverageRoundRequest{Session: sess + 100, Base: cellset.FromSet(q), Delta: 10})
			dropSession(srv, sess+100)
			if !reflect.DeepEqual(got.Offer, want.Offer) {
				t.Fatalf("query %d at %s: after a cancelled round the session offered %+v, a fresh one %+v", i, srv.Name, got.Offer, want.Offer)
			}
			if got.Found {
				offered++
			}
			dropSession(srv, sess)
		}
	}
	if offered == 0 {
		t.Fatal("no source offered anything: the test exercises nothing")
	}
}

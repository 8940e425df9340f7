package federation

import (
	"context"
	"testing"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/transport"
)

func testServer(t *testing.T) *SourceServer {
	t.Helper()
	g := geo.NewGrid(6, geo.Rect{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64})
	var nodes []*dataset.Node
	for i := 0; i < 12; i++ {
		nodes = append(nodes, dataset.NewNodeFromCells(i, "d",
			cellset.New(geo.ZEncode(uint32(i*4), 8), geo.ZEncode(uint32(i*4+1), 8))))
	}
	return NewSourceServerWithGrid("src", dits.Build(g, nodes, 4))
}

func TestHandlerSummary(t *testing.T) {
	srv := testServer(t)
	var summary dits.SourceSummary
	callHandler(t, srv.Handler(), MethodSummary, nil, &summary)
	if summary.Name != "src" || summary.Rect.IsEmpty() {
		t.Errorf("summary = %+v", summary)
	}
	if summary.Theta != 6 {
		t.Errorf("theta = %d, want 6", summary.Theta)
	}
}

func TestHandlerErrors(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	if _, err := h(context.Background(), BinaryCodec, "no.such.method", nil); err == nil {
		t.Error("unknown method should error")
	}
	if _, err := h(context.Background(), BinaryCodec, MethodOverlap, []byte("garbage")); err == nil {
		t.Error("garbage overlap body should error")
	}
	if _, err := h(context.Background(), BinaryCodec, MethodCoverage, []byte("garbage")); err == nil {
		t.Error("garbage coverage body should error")
	}
	if _, err := h(context.Background(), BinaryCodec, MethodOverlap, []byte{99}); err == nil {
		t.Error("wrong binary message type should error")
	}
}

func TestHandlerOverlapEmptyQuery(t *testing.T) {
	srv := testServer(t)
	var resp OverlapResponse
	callHandler(t, srv.Handler(), MethodOverlap, &OverlapRequest{Cells: nil, K: 5}, &resp)
	if len(resp.Results) != 0 {
		t.Errorf("empty query returned %v", resp.Results)
	}
}

func TestHandlerCoverageExcludes(t *testing.T) {
	srv := testServer(t)
	q := cellset.New(geo.ZEncode(0, 8))
	// First call finds dataset 0 (closest); excluding it yields another.
	call := func(exclude []int) CoverageCandidate {
		var cand CoverageCandidate
		callHandler(t, srv.Handler(), MethodCoverage, &CoverageRequest{Merged: q, Delta: 4, Exclude: exclude}, &cand)
		return cand
	}
	first := call(nil)
	if !first.Found {
		t.Fatal("expected a first candidate")
	}
	second := call([]int{first.ID})
	if second.Found && second.ID == first.ID {
		t.Error("excluded dataset returned again")
	}
	// RegisterRemote round-trips the summary over a peer.
	center := NewCenter(geo.NewGrid(6, geo.Rect{MaxX: 64, MaxY: 64}), DefaultOptions())
	peer := &transport.InProc{Name: "src", Handler: srv.Handler(), Metrics: center.Metrics}
	summary, err := center.RegisterRemote(context.Background(), peer)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Name != "src" || center.NumSources() != 1 {
		t.Errorf("RegisterRemote: %+v, sources %d", summary, center.NumSources())
	}
}

// TestRegisterRemoteRefusesOtherTheta: a source gridded at θ=6 must not
// join a θ=7 center, whose cell IDs mean other cells; a θ=6 center and
// the grid-less relay roster take it.
func TestRegisterRemoteRefusesOtherTheta(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct {
		grid geo.Grid
		ok   bool
	}{
		{geo.NewGrid(7, geo.Rect{MaxX: 64, MaxY: 64}), false},
		{geo.NewGrid(6, geo.Rect{MaxX: 64, MaxY: 64}), true},
		{geo.Grid{}, true},
	} {
		center := NewCenter(tc.grid, DefaultOptions())
		peer := &transport.InProc{Name: "src", Handler: srv.Handler(), Metrics: center.Metrics}
		_, err := center.RegisterRemote(context.Background(), peer)
		if (err == nil) != tc.ok {
			t.Errorf("center θ=%d: RegisterRemote err = %v, want ok=%v", tc.grid.Theta, err, tc.ok)
		}
		if registered := center.NumSources() == 1; registered != tc.ok {
			t.Errorf("center θ=%d: %d sources registered, want ok=%v", tc.grid.Theta, center.NumSources(), tc.ok)
		}
	}
}

package exec

import (
	"slices"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/search/coverage"
)

// LazyPicker is the greedy pick of a serving loop that keeps its state
// across rounds: the merged cells, the datasets connected to them, and for
// each of those a bound on its marginal gain. Coverage is submodular — the
// merged set only grows, so a dataset's gain only shrinks — and a gain once
// computed bounds every later one; a dataset never computed is bounded by
// |S_D|, the bound behind Algorithm 3's size filter. Pick orders the
// candidates by (bound desc, ID asc) in a heap and re-evaluates only the
// top until the top's bound is exact for the current merged set (Minoux's
// accelerated greedy). That top is the scan's pick, tie-break included:
// every other candidate's gain is at most its bound, which is at most the
// top's exact gain, and an equal bound sorts after it only with a larger ID.
//
// Re-evaluation is incremental. Each Absorb logs the cells that were new to
// the merged set; those entries are disjoint, so a dataset whose bound was
// exact when the log held s entries now gains its bound minus its overlap
// with the entries from s on. A dataset that joins the connected set after
// the first Pick starts out exact, too: it was not connected to the merged
// set of the previous Pick, so it shares no cell with it, and |S_D| was its
// gain then. Only the datasets of the first Pick after Reset or Forget are
// computed against the whole merged set.
//
// That needs what ExtendConnectSet provides: at every Pick, Connected holds
// every dataset within δ ≥ 0 of the merged set. The zero value is not
// ready: Reset sets the merged set first. A LazyPicker is owned by one loop
// and is not safe for concurrent use.
type LazyPicker struct {
	// Connected holds the datasets connected to the merged set; the loop
	// grows it with ExtendConnectSet. Bounds align with Connected.Nodes by
	// index and are filled in for new nodes at the next Pick.
	Connected coverage.ConnectSet

	merged *cellset.Compact
	bounds []lazyBound        // bounds[i] is Connected.Nodes[i]'s
	news   []*cellset.Compact // per Absorb, the cells it added to merged
	picked int                // len(news) at the last Pick; -1 before the first
	heap   []int32            // Pick's scratch: indices into Connected.Nodes

	// Whole and Incremental count exact gain evaluations: against the
	// whole merged set, and from the log entries since a bound was exact.
	Whole, Incremental int
}

// lazyBound is one connected dataset's bound on its marginal gain.
type lazyBound struct {
	gain  int // at least the dataset's gain over the merged set
	stamp int // len(news) when gain was exact; -1 while it only bounds it
}

// Reset starts over from merged: nothing connected, no bounds, empty log.
// The evaluation counts keep running.
func (p *LazyPicker) Reset(merged *cellset.Compact) {
	p.merged = merged
	p.Forget()
}

// Forget drops the connected set and every bound while keeping the merged
// set: the index changed under them, so a dataset may have been replaced
// under its ID or removed, and a kept bound would no longer bound anything.
// The connectivity counts keep running.
func (p *LazyPicker) Forget() {
	p.Connected = coverage.ConnectSet{ConnectCounts: p.Connected.ConnectCounts}
	p.bounds, p.news, p.picked = p.bounds[:0], nil, -1
}

// Merged returns the merged set.
func (p *LazyPicker) Merged() *cellset.Compact { return p.merged }

// Absorb unions added into the merged set, logs the cells that were new
// to it and returns them. An absorb that adds nothing logs nothing, so no
// bound goes stale.
func (p *LazyPicker) Absorb(added *cellset.Compact) *cellset.Compact {
	fresh := added.Diff(p.merged)
	if !fresh.IsEmpty() {
		p.merged = p.merged.Union(fresh)
		p.news = append(p.news, fresh)
	}
	return fresh
}

// Pick returns the connected dataset with the maximum marginal gain over
// the merged set among those excluded does not reject, with the smallest-ID
// tie-break, and its gain: what pickBestSeq returns over Connected.Nodes.
// It returns (nil, 0) when no candidate adds a cell.
func (p *LazyPicker) Pick(excluded func(id int) bool) (*dataset.Node, int) {
	nodes := p.Connected.Nodes
	p.bounds = slices.Grow(p.bounds, len(nodes)-len(p.bounds))
	for _, nd := range nodes[len(p.bounds):] {
		p.bounds = append(p.bounds, lazyBound{gain: nd.Coverage(), stamp: p.picked})
	}
	h := slices.Grow(p.heap[:0], len(nodes))
	for i, nd := range nodes {
		if !excluded(nd.ID) {
			h = append(h, int32(i))
		}
	}
	p.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		p.siftDown(h, i)
	}
	now := len(p.news)
	p.picked = now
	for len(h) > 0 {
		b := &p.bounds[h[0]]
		if b.gain == 0 {
			break // the top bounds every gain: none adds a cell
		}
		if b.stamp == now {
			return nodes[h[0]], b.gain
		}
		b.gain, b.stamp = p.gain(h[0]), now
		p.siftDown(h, 0) // a bound only falls
	}
	return nil, 0
}

// gain computes node i's exact gain over the merged set: from its exact
// bound and the log entries since, or against the whole set when it has
// never been evaluated.
func (p *LazyPicker) gain(i int32) int {
	d := p.Connected.Nodes[i].CompactCells()
	b := p.bounds[i]
	if b.stamp < 0 {
		p.Whole++
		return p.merged.MarginalGain(d)
	}
	p.Incremental++
	g := b.gain
	for _, c := range p.news[b.stamp:] {
		g -= c.IntersectCount(d)
	}
	return g
}

// before is the heap order: bound desc, then ID asc.
func (p *LazyPicker) before(a, b int32) bool {
	if ga, gb := p.bounds[a].gain, p.bounds[b].gain; ga != gb {
		return ga > gb
	}
	return p.Connected.Nodes[a].ID < p.Connected.Nodes[b].ID
}

// siftDown restores the heap order below position i.
func (p *LazyPicker) siftDown(h []int32, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && p.before(h[r], h[c]) {
			c = r
		}
		if !p.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Package coverage solves the Coverage Joinable Search Problem (CJSP,
// Definition 11): pick up to k datasets maximizing the cells covered
// together with the query, subject to spatial connectivity (Definitions
// 7-9). CJSP is NP-hard (Lemma 1); the paper's CoverageSearch (Algorithm 3)
// is a greedy (1−1/e under the Lemma 5 assumption) algorithm accelerated by
// the Lemma 4 distance bounds and the spatial merge strategy. The package
// also provides the two baselines of §VII-D: the standard greedy SG and
// SG+DITS.
//
// All three algorithms make the same greedy choice sequence (maximum
// marginal gain, ties toward smaller IDs): a dataset is directly connected
// to the merged result set exactly when it is directly connected to at
// least one member, because the minimum cell distance to a union of sets is
// the minimum over the sets. Tests assert the three produce identical
// results; only their running time differs.
//
// The three keep Algorithm 3's published structure — one FindConnectSet
// walk from the whole merged node per round — because they are the
// reproduction (figs 15-18, the ablation) and the oracle the serving loops
// are tested against. The serving loops (search/exec's CoverageSearch, the
// federation source's session) use the same identity the other way round:
// connected(M ∪ A) = connected(M) ∪ connected(A), so they keep the
// connected set across rounds (ConnectSet) and walk from each round's
// added cells alone, skipping the datasets already in it. They differ in
// how they pick, too: where the three scan every candidate's gain with the
// size filter, the serving loops keep a bound on each gain across rounds
// and re-evaluate only the candidates whose bound can still win, from the
// cells added since (search/exec's LazyPicker). The pick is the same.
//
// # Concurrency and ownership
//
// Searches are read-only over the index: concurrent Search calls on one
// index are safe as long as no index mutation runs concurrently. The
// merged query node and the covered set a search accumulates are owned by
// that search; cellset.Compact values are immutable, so the merged state
// shares containers with the picked datasets without copying. A
// caller-supplied DistIndex (FindConnectSetWithIndex) may be read by many
// concurrent walks. Only the searchers of this package grow one (Add, once
// per pick), which requires exclusive access; their loops alternate search
// and growth, never overlapping them. A source's coverage session rebuilds
// its own index over each round's delta (DistIndex.Rebuild), between
// walks, never during one; the executor's loop builds a fresh one per
// round. Neither grows it.
// Result.Picked aliases the index's dataset nodes and must be treated as
// read-only.
package coverage

import (
	"math"
	"slices"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
	"dits/internal/index/dits"
)

// Result is the outcome of a coverage joinable search.
type Result struct {
	// Picked lists the chosen dataset nodes in greedy pick order.
	Picked []*dataset.Node
	// Coverage is |S_Q ∪ (∪ picked)|, the objective of Equation 2.
	Coverage int
	// QueryCoverage is |S_Q| alone, for reporting the gain.
	QueryCoverage int
}

// IDs returns the picked dataset IDs in pick order.
func (r Result) IDs() []int {
	out := make([]int, len(r.Picked))
	for i, n := range r.Picked {
		out[i] = n.ID
	}
	return out
}

// Searcher is a CJSP algorithm over one data source.
type Searcher interface {
	// Name identifies the algorithm (for benchmark tables).
	Name() string
	// Search returns up to k connected datasets greedily maximizing
	// coverage together with the query, under connectivity threshold
	// delta (in cell units).
	Search(q *dataset.Node, delta float64, k int) Result
}

// pickBest selects, among candidates not yet picked, the dataset with the
// maximum marginal gain over covered, applying the size filter of
// Algorithm 3 (lines 5-9): a dataset with fewer cells than the best gain
// seen so far cannot reach it, so its exact gain is never computed. (The
// paper filters |S_D| > τ strictly; ties are admitted here so that the
// ID tie-break is independent of candidate order and all three algorithms
// return identical results.) Ties break toward smaller IDs. A dataset that
// adds no cell is never picked: nil when no candidate adds one, which ends
// the greedy, since gains only fall as covered grows.
func pickBest(cands []*dataset.Node, picked map[int]bool, covered *cellset.Compact) *dataset.Node {
	tau := 0
	var best *dataset.Node
	for _, nd := range cands {
		if nd == nil || picked[nd.ID] {
			continue
		}
		if nd.Coverage() < tau {
			continue // size filter: gain <= |S_D| < τ
		}
		g := covered.MarginalGain(nd.CompactCells())
		if g > tau || (g == tau && best != nil && nd.ID < best.ID) {
			best = nd
			tau = g
		}
	}
	return best
}

// DITSSearcher implements CoverageSearch (Algorithm 3): each of the k
// iterations performs one FindConnectSet tree search from the merged
// result node N_M, then greedily adds the connected dataset with the
// maximum marginal gain and merges it into N_M.
type DITSSearcher struct {
	Index *dits.Local
}

// Name implements Searcher.
func (s *DITSSearcher) Name() string { return "CoverageSearch" }

// Search implements Searcher.
func (s *DITSSearcher) Search(q *dataset.Node, delta float64, k int) Result {
	if q == nil || k <= 0 || s.Index.Root == nil {
		return resultFor(q, nil)
	}
	merged := q
	covered := q.CompactCells()
	picked := map[int]bool{}
	qIdx := cellset.NewDistIndex(q.FlatCells(), delta)
	var chosen []*dataset.Node

	for len(chosen) < k {
		cands := findConnectSet(s.Index.Root, merged, delta, qIdx)
		best := pickBest(cands, picked, covered)
		if best == nil {
			break // nothing connected remains
		}
		picked[best.ID] = true
		chosen = append(chosen, best)
		covered = covered.Union(best.CompactCells())
		merged = merged.Merge(best)
		qIdx.Add(best.CompactCells())
	}
	return Result{Picked: chosen, Coverage: covered.Len(), QueryCoverage: q.Coverage()}
}

// FindConnectSet walks the DITS-L tree and returns every dataset node
// directly connected to q under threshold delta (Algorithm 3, lines
// 14-26): a subtree whose Lemma 4 upper bound is within delta is accepted
// wholesale; one whose lower bound — Lemma 4's, or the distance between
// the MBRs — exceeds delta is pruned; leaves in between are verified
// cell-exactly. Every bound is valid, so the result is exactly the set of
// datasets within delta of q, in tree order.
func FindConnectSet(root *dits.TreeNode, q *dataset.Node, delta float64) []*dataset.Node {
	return findConnectSet(root, q, delta, cellset.NewDistIndex(q.FlatCells(), delta))
}

// FindConnectSetWithIndex is FindConnectSet with a caller-supplied distance
// index over q's cells: the serving loops pass the index of the round's
// delta together with a node carrying only its geometry. A serving loop also
// passes the ConnectSet it keeps as known (nil for a fresh walk): a leaf's
// dataset already in it is skipped before its bounds and its exact check.
// known is only read, so concurrent walks may share it; after known.Add of
// the result it holds exactly what it would after adding the full walk's.
func FindConnectSetWithIndex(root *dits.TreeNode, q *dataset.Node, delta float64, qIdx *cellset.DistIndex, known *ConnectSet) []*dataset.Node {
	var discard ConnectCounts
	return walkConnect(root, q, delta, qIdx, known, &discard)
}

// walkConnect is FindConnectSetWithIndex, counting its work into counts.
func walkConnect(root *dits.TreeNode, q *dataset.Node, delta float64, qIdx *cellset.DistIndex, known *ConnectSet, counts *ConnectCounts) []*dataset.Node {
	var out []*dataset.Node
	var walk func(n *dits.TreeNode)
	walk = func(n *dits.TreeNode) {
		if n == nil || n.Rect.IsEmpty() || mbrFar(n.Rect, q.Rect, delta) {
			return
		}
		c := n.O.Dist(q.O)
		lb := c - n.R - q.R
		if lb < 0 {
			lb = 0
		}
		ub := c + n.R + q.R
		if ub <= delta {
			// Whole subtree connected: collect every dataset under it.
			collect(n, &out)
			return
		}
		if lb > delta {
			return // whole subtree too far
		}
		if n.IsLeaf() {
			// Materialize a file-backed leaf before its children's cells are
			// needed — both for the exact connectivity check here and for the
			// marginal-gain scans downstream of the returned candidates.
			n.EnsureLoaded()
			for _, nd := range n.Children {
				counts.Examined++
				if known.Has(nd.ID) {
					counts.Known++
					continue // connected in an earlier round
				}
				ndLB, ndUB := nd.DistBounds(q)
				if ndLB > delta || mbrFar(nd.Rect, q.Rect, delta) {
					counts.Pruned++
					continue
				}
				if ndUB <= delta || connectedTo(qIdx, nd, counts) {
					out = append(out, nd)
				}
			}
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(root)
	return out
}

// GuardSpans is the most spans a guard holds.
const GuardSpans = 4

// GuardSpan is one span of a guard with its ceiling: the largest gain any
// dataset the span stands for could offer once added cells meet the span.
type GuardSpan struct {
	cellset.Span
	Ceil int
}

// Guard returns where cells added to the merged set can change an offer:
// at most GuardSpans spans of grid cells, each with its ceiling. offer is
// the dataset offered with gain over the merged set, nil when nothing is
// offered; connected is the merged set's connected set and excluded
// rejects the IDs never offered.
//
// Gains only fall as the merged set grows, so added cells with none in the
// guard leave the offer as it is. Its own gain moves only when a cell lands
// in its MBR, and only down: that span's ceiling is the gain. A connected
// dataset's gain could only fall further below it. An unconnected one can
// connect only through a cell within delta of its MBR, and beat the offer
// only if |S_D| > gain, or |S_D| = gain with a smaller ID; with nothing
// offered, any of them can. The guard covers the offer's MBR and the MBRs
// of those, expanded by delta rounded up, each with |S_D| as its ceiling.
// So the offer after added cells is at most the larger of gain and the
// ceilings of the spans they meet. The walk skips every leaf whose
// MaxCells is below the gain, and merges the spans down to GuardSpans by
// least area growth as it goes; a merged span keeps the larger ceiling.
func Guard(root *dits.TreeNode, offer *dataset.Node, gain int, delta float64, connected *ConnectSet, excluded func(id int) bool) []GuardSpan {
	var g []GuardSpan
	if offer != nil {
		g = addSpan(g, GuardSpan{spanOf(offer.Rect, 0), gain})
	}
	grow := uint32(math.Ceil(delta))
	need := max(gain, 1) // with nothing offered, any dataset with a cell
	var walk func(n *dits.TreeNode)
	walk = func(n *dits.TreeNode) {
		if n == nil || n.Rect.IsEmpty() {
			return
		}
		if !n.IsLeaf() {
			walk(n.Left)
			walk(n.Right)
			return
		}
		if n.MaxCells < need {
			return
		}
		n.EnsureLoaded()
		for _, nd := range n.Children {
			size := nd.Coverage()
			if size < need || (offer != nil && size == gain && nd.ID > offer.ID) {
				continue // cannot beat the offer
			}
			if (offer != nil && nd.ID == offer.ID) || connected.Has(nd.ID) || excluded(nd.ID) {
				continue
			}
			g = addSpan(g, GuardSpan{spanOf(nd.Rect, grow), size})
		}
	}
	walk(root)
	return g
}

// spanOf returns the cells of the grid-coordinate MBR r, grown by grow
// cells on every side and clamped to the coordinate range.
func spanOf(r geo.Rect, grow uint32) cellset.Span {
	lo := func(v float64) uint32 { return uint32(max(v-float64(grow), 0)) }
	hi := func(v float64) uint32 { return uint32(min(v+float64(grow), math.MaxUint32)) }
	return cellset.Span{X0: lo(r.MinX), Y0: lo(r.MinY), X1: hi(r.MaxX), Y1: hi(r.MaxY)}
}

// addSpan adds s to the guard g: when a span of g contains it, by raising
// that span's ceiling to s's, and otherwise as a span of its own, merging,
// when g then holds more than GuardSpans, the pair whose union adds the
// least area to the two.
func addSpan(g []GuardSpan, s GuardSpan) []GuardSpan {
	for i, t := range g {
		if t.X0 <= s.X0 && t.Y0 <= s.Y0 && s.X1 <= t.X1 && s.Y1 <= t.Y1 {
			g[i].Ceil = max(t.Ceil, s.Ceil)
			return g
		}
	}
	g = append(g, s)
	if len(g) <= GuardSpans {
		return g
	}
	bi, bj, best := 0, 1, math.Inf(1)
	for i := range g {
		for j := i + 1; j < len(g); j++ {
			if d := area(union(g[i], g[j])) - area(g[i]) - area(g[j]); d < best {
				bi, bj, best = i, j, d
			}
		}
	}
	g[bi] = union(g[bi], g[bj])
	return slices.Delete(g, bj, bj+1)
}

// union is the smallest span over a and b, with the larger ceiling.
func union(a, b GuardSpan) GuardSpan {
	return GuardSpan{cellset.Span{X0: min(a.X0, b.X0), Y0: min(a.Y0, b.Y0), X1: max(a.X1, b.X1), Y1: max(a.Y1, b.Y1)}, max(a.Ceil, b.Ceil)}
}

func area(s GuardSpan) float64 {
	return float64(s.X1-s.X0+1) * float64(s.Y1-s.Y0+1)
}

// findConnectSet is a fresh FindConnectSetWithIndex walk.
func findConnectSet(root *dits.TreeNode, q *dataset.Node, delta float64, qIdx *cellset.DistIndex) []*dataset.Node {
	return FindConnectSetWithIndex(root, q, delta, qIdx, nil)
}

// mbrFar reports whether the MBRs a and b lie more than delta apart, in
// which case no cell of one is within delta of a cell of the other. It is
// the bound a merged query needs: the merged ball of Lemma 4 swells with
// every pick until it prunes nothing, while the distance between MBRs stays
// tight. Squared distances, the exact kernel's arithmetic, keep the bound
// from disagreeing with the kernel at a distance of exactly delta.
func mbrFar(a, b geo.Rect, delta float64) bool {
	return a.MinDist2(b) > delta*delta
}

// ConnectSet accumulates the datasets directly connected to a merged set
// that only grows. Distance to a union is the minimum over its members, so
// connected(M ∪ A) = connected(M) ∪ connected(A): a greedy loop that keeps
// a ConnectSet walks the tree once per round from the cells added that
// round alone — a small ball and MBR, a DistIndex over the delta only —
// and folds the walk's result in with Add. Nodes holds the connected
// datasets in first-seen order; the greedy pick does not depend on that
// order (maximum gain, ties toward the smaller ID). The zero value is
// empty and ready to use.
type ConnectSet struct {
	Nodes []*dataset.Node
	seen  map[int]struct{}
	// ConnectCounts is the work of the walks that extended the set.
	ConnectCounts
}

// ConnectCounts counts the datasets a connectivity walk met at the leaves
// it verified: Examined of them in all, Known skipped as already connected,
// Pruned by the Lemma 4 bound or the MBR distance, Far rejected by
// DistIndex.NearRect, and Probes of them checked cell by cell, Hits of
// those connected. A dataset the upper bound accepts counts as examined
// only, and one under a subtree accepted wholesale not at all.
type ConnectCounts struct {
	Examined, Known, Pruned, Far, Probes, Hits int
}

// Extend folds into c every dataset within delta of q that it does not
// hold yet, counting the walk's work: c ends up exactly as after
// c.Add(FindConnectSetWithIndex(root, q, delta, qIdx, nil)), first-seen
// order included.
func (c *ConnectSet) Extend(root *dits.TreeNode, q *dataset.Node, delta float64, qIdx *cellset.DistIndex) {
	c.Add(walkConnect(root, q, delta, qIdx, c, &c.ConnectCounts))
}

// Has reports whether the dataset with the given ID is in the set; a nil
// set holds nothing.
func (c *ConnectSet) Has(id int) bool {
	if c == nil {
		return false
	}
	_, ok := c.seen[id]
	return ok
}

// Add folds in the result of one FindConnectSet walk, skipping datasets
// already present.
func (c *ConnectSet) Add(found []*dataset.Node) {
	if c.seen == nil {
		c.seen = make(map[int]struct{}, len(found))
	}
	for _, nd := range found {
		if _, dup := c.seen[nd.ID]; !dup {
			c.seen[nd.ID] = struct{}{}
			c.Nodes = append(c.Nodes, nd)
		}
	}
}

func collect(n *dits.TreeNode, out *[]*dataset.Node) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		n.EnsureLoaded()
		*out = append(*out, n.Children...)
		return
	}
	collect(n.Left, out)
	collect(n.Right, out)
}

// connectedTo runs the exact cell-distance check against whichever form
// the dataset node carries: the flat set for heap-built nodes, the
// container form for file-backed ones.
func connectedTo(qIdx *cellset.DistIndex, nd *dataset.Node, counts *ConnectCounts) bool {
	if !qIdx.NearRect(nd.Rect) {
		counts.Far++
		return false // no near block in the MBR: skip decoding the cells
	}
	counts.Probes++
	var hit bool
	if nd.Cells != nil {
		hit = qIdx.Connected(nd.Cells)
	} else {
		hit = qIdx.ConnectedCompact(nd.CompactCells())
	}
	if hit {
		counts.Hits++
	}
	return hit
}

func resultFor(q *dataset.Node, picked []*dataset.Node) Result {
	r := Result{Picked: picked}
	if q != nil {
		r.QueryCoverage = q.Coverage()
		r.Coverage = r.QueryCoverage
	}
	return r
}

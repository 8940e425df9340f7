package dits

import (
	"cmp"
	"slices"

	"dits/internal/geo"
)

// SourceSummary is what each data source uploads to the data center after
// building its local index (§V-B): its root node's MBR, pivot, and radius
// converted to raw latitude/longitude coordinates, plus the source's grid
// (θ, origin and cell size), which must be the federation's for its cell
// IDs to name the same cells. The global index is built over these
// summaries only — no dataset ever leaves its source at index time.
type SourceSummary struct {
	Name string
	Rect geo.Rect  // root MBR in raw coordinates
	O    geo.Point // pivot
	R    float64   // radius
	Grid geo.Grid  // the source's grid
}

// GNode is a node of the DITS-G tree. Leaves hold source summaries instead
// of dataset nodes, and carry no inverted index (Example 5).
type GNode struct {
	Rect        geo.Rect
	O           geo.Point
	R           float64
	Left, Right *GNode
	Sources     []SourceSummary // leaf only
}

// IsLeaf reports whether g is a leaf.
func (g *GNode) IsLeaf() bool { return g.Left == nil && g.Right == nil }

// Global is the DITS-G index maintained by the data center.
type Global struct {
	Root *GNode
}

// BuildGlobal constructs DITS-G over the uploaded source summaries with
// leaf capacity f, using the same top-down median split as the local index.
func BuildGlobal(summaries []SourceSummary, f int) *Global {
	if f <= 0 {
		f = DefaultLeafCapacity
	}
	return &Global{Root: buildGlobal(append([]SourceSummary(nil), summaries...), f)}
}

func buildGlobal(ss []SourceSummary, f int) *GNode {
	n := &GNode{}
	r := geo.EmptyRect
	for _, s := range ss {
		r = r.Union(s.Rect)
	}
	n.Rect = r
	if !r.IsEmpty() {
		n.O = r.Center()
		// The node's ball must cover the *balls* of every source in the
		// subtree, not just their MBRs — a skewed source rect has a ball
		// sticking out of the union rect, and the distance lower bound
		// dist(N.o, N_Q.o) − N.r − N_Q.r is only a safe prune when the
		// node ball contains every descendant ball.
		for _, s := range ss {
			if cover := n.O.Dist(s.O) + s.R; cover > n.R {
				n.R = cover
			}
		}
	}
	if len(ss) <= f {
		n.Sources = ss
		return n
	}
	splitX := r.Width() >= r.Height()
	key := func(s SourceSummary) float64 {
		if splitX {
			return s.O.X
		}
		return s.O.Y
	}
	slices.SortStableFunc(ss, func(a, b SourceSummary) int {
		return cmp.Compare(key(a), key(b))
	})
	mid := len(ss) / 2
	n.Left = buildGlobal(ss[:mid], f)
	n.Right = buildGlobal(ss[mid:], f)
	return n
}

// QueryNode is the query's summary in raw coordinates, used by the data
// center to pick candidate sources.
type QueryNode struct {
	Rect geo.Rect
	O    geo.Point
	R    float64
}

// CandidateSources walks DITS-G and returns the sources that may hold
// results for the query (§VI-A, first distribution strategy): a subtree is
// pruned when its MBR neither intersects the query MBR nor can be within
// deltaRaw (the connectivity threshold converted to raw distance) of it,
// i.e. when dist(N.o, N_Q.o) − N.r − N_Q.r ≥ δ and the MBRs are disjoint.
// Pass deltaRaw = 0 for overlap search, where only MBR intersection counts.
func (g *Global) CandidateSources(q QueryNode, deltaRaw float64) []SourceSummary {
	var out []SourceSummary
	var walk func(n *GNode)
	walk = func(n *GNode) {
		if n == nil {
			return
		}
		if !n.Rect.Intersects(q.Rect) {
			lb := n.O.Dist(q.O) - n.R - q.R
			if lb > deltaRaw {
				return
			}
		}
		if n.IsLeaf() {
			for _, s := range n.Sources {
				if s.Rect.Intersects(q.Rect) {
					out = append(out, s)
					continue
				}
				if s.O.Dist(q.O)-s.R-q.R <= deltaRaw {
					out = append(out, s)
				}
			}
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(g.Root)
	return out
}

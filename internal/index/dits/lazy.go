package dits

import (
	"fmt"
	"sync"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

// File-backed indexes. internal/index/ditsfile decodes only the tree
// SKELETON of a snapshot eagerly — node geometry, child links, MaxCells,
// and stub dataset nodes with ID/Name/MBR — and arms each leaf with a
// loader that materializes the heavy payload (children cell containers,
// union summary, posting lists) on first touch. OverlapCounts and
// the other leaf accessors call EnsureLoaded themselves, so every consumer
// of the leaf access interface (search/exec, the sequential searchers, coverage
// sessions, batch) works against a file-backed index unchanged: a leaf
// pruned by the tree walk never faults its pages in.

// LeafData is everything a file-backed leaf materializes on first touch.
// ChildCells aligns with the leaf's Children slice; Post must carry one
// posting list per cell of Union, in rank order (see LeafPostings).
type LeafData struct {
	ChildCells []*cellset.Compact
	Union      *cellset.Compact
	Post       *LeafPostings
}

// LeafPostings is a leaf's inverted index, heap-built or aliasing a
// snapshot file: the child positions holding the cell of rank i in the
// leaf's cell union (unionC) are Entries[Ends[i-1]:Ends[i]]. OverlapCounts
// reads the lists by the ranks the query's cellset.Probe yields, so the cells
// themselves are never stored. A mutation rebuilds the whole index from
// the leaf's children.
type LeafPostings struct {
	Ends    []uint32 // prefix end offsets into Entries, one per union cell
	Entries []uint16 // child positions, grouped per cell, ascending within a cell
}

// newLeafPostings builds the inverted index of a leaf holding children
// whose cell union holds unionLen cells, from where: the union rank of
// every child cell, child by child (cellset.UnionRanks, or each child's
// AppendIntersectRanks against the union). A counting sort groups the
// pairs by cell; children are visited in position order, so positions
// ascend within each cell.
func newLeafPostings(children []*dataset.Node, unionLen int, where []uint32) *LeafPostings {
	p := &LeafPostings{Ends: make([]uint32, unionLen), Entries: make([]uint16, len(where))}
	for _, r := range where {
		p.Ends[r]++
	}
	// Counts -> start offsets; filling advances each start to its list's end.
	sum := uint32(0)
	for i, n := range p.Ends {
		p.Ends[i] = sum
		sum += n
	}
	j := 0
	for pos, c := range children {
		for range c.Coverage() {
			p.Entries[p.Ends[where[j]]] = uint16(pos)
			p.Ends[where[j]]++
			j++
		}
	}
	return p
}

// Postings returns the leaf's inverted index, materializing a file-backed
// leaf first. It never modifies the leaf, so it is safe beside concurrent
// searches (the snapshot writer runs under the shared lock).
func (n *TreeNode) Postings() *LeafPostings {
	n.EnsureLoaded()
	return n.post
}

// lazyLeaf arms a leaf for one-shot materialization. The once gives every
// racing reader a happens-before edge on the loaded fields; load errors
// leave the leaf empty (searches see zero overlap) and are surfaced via
// the reader's error counter, never as a panic.
type lazyLeaf struct {
	once sync.Once
	load func() (LeafData, error)
	err  error
}

// EnsureLoaded materializes a file-backed leaf's payload, blocking until
// the first toucher finishes. It is a two-instruction no-op on heap-built
// leaves and after the first load.
func (n *TreeNode) EnsureLoaded() {
	lz := n.lazy
	if lz == nil {
		return
	}
	lz.once.Do(func() {
		data, err := lz.load()
		if err != nil {
			lz.err = err
			return
		}
		for i, cc := range data.ChildCells {
			if i < len(n.Children) {
				n.Children[i].Compact = cc
			}
		}
		n.unionC = data.Union
		n.post = data.Post
	})
}

// LoadErr returns the materialization error of a file-backed leaf, or nil.
// It is meaningful only after EnsureLoaded has run.
func (n *TreeNode) LoadErr() error {
	if n.lazy == nil {
		return nil
	}
	return n.lazy.err
}

// AttachLazyLeaf arms a leaf for on-demand materialization. It must run
// during index assembly, before the index is published to searchers.
func AttachLazyLeaf(n *TreeNode, load func() (LeafData, error)) {
	n.lazy = &lazyLeaf{load: load}
}

// VisitLeaves calls fn for every leaf under n, in tree order.
func (n *TreeNode) VisitLeaves(fn func(*TreeNode)) { n.visitLeaves(fn) }

// LeafSummaries returns the leaf's compact union summary (Lemma 2),
// materializing a file-backed leaf first. It is nil for internal nodes and
// empty leaves.
func (n *TreeNode) LeafSummaries() *cellset.Compact {
	n.EnsureLoaded()
	return n.unionC
}

// BackingInfo reports the memory footprint of a file-backed index; the
// ditsfile reader implements it and Open attaches it to the Local it
// assembles. A heap-built index has a nil Backing.
type BackingInfo interface {
	// MappedBytes is the size of the file mapping (0 in copy mode).
	MappedBytes() int64
	// ResidentEstBytes estimates resident memory: the eagerly decoded
	// skeleton plus the payload bytes of every leaf materialized so far.
	ResidentEstBytes() int64
	// LeafLoads counts leaves materialized so far — the page-fault proxy:
	// each load walks that leaf's payload pages exactly once.
	LeafLoads() int64
	// LoadErrors counts leaves whose payload failed validation and
	// degraded to an empty leaf.
	LoadErrors() int64
}

// NewFromTree assembles a Local around an externally decoded tree — the
// ditsfile reader's entry point. It derives the byID/leafOf bookkeeping
// from a leaf walk (the skeleton's Children must be populated with stub
// dataset nodes; payloads may still be lazy) and rejects duplicate IDs.
func NewFromTree(g geo.Grid, f int, root *TreeNode) (*Local, error) {
	if root == nil {
		return nil, fmt.Errorf("dits: nil root")
	}
	l := &Local{
		Grid:   g,
		F:      leafCapacity(f),
		Root:   root,
		byID:   make(map[int]*dataset.Node),
		leafOf: make(map[int]*TreeNode),
	}
	var err error
	root.visitLeaves(func(leaf *TreeNode) {
		for _, c := range leaf.Children {
			if _, dup := l.byID[c.ID]; dup && err == nil {
				err = fmt.Errorf("dits: duplicate dataset ID %d", c.ID)
			}
			l.byID[c.ID] = c
			l.leafOf[c.ID] = leaf
		}
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// list returns the child positions holding the i-th cell of the union.
func (p *LeafPostings) list(i int) []uint16 {
	start := uint32(0)
	if i > 0 {
		start = p.Ends[i-1]
	}
	return p.Entries[start:p.Ends[i]]
}

// Package exec is the query-execution engine a source serves
// (federation.SourceServer) over its DITS-L index: OJSP one query at a
// time or a batch of queries in one shared pass over the tree, and CJSP
// as a greedy that keeps its state from round to round. Each call runs on
// its caller's goroutine, in the sequential order of Algorithms 2 and 3,
// and returns results identical to the `search/overlap` and
// `search/coverage` reference searchers (enforced by differential and fuzz
// tests). Leaf verification is dits.TreeNode.OverlapCounts, the call the
// reference searcher makes too; a call builds one cellset.Probe of its
// query and threads it and one dits.LeafScratch through every leaf, so the
// verification loop allocates nothing after warm-up.
//
// # Ownership contracts
//
// The executor treats the index as frozen: a *dits.Local and every
// *dataset.Node reachable from it are READ-ONLY for the duration of a
// call. Callers must not run index mutations (Insert/Delete/Update)
// concurrently with an executor call — the same contract the reference
// searchers have. Cell sets are consumed through CompactCells, which never
// mutates a node.
//
// An Executor is stateless and safe for concurrent use by any number of
// goroutines.
package exec

// Executor runs DITS-L query execution. The zero value is ready to use.
type Executor struct {
	// Deprecated: no effect. Every call runs on its caller's goroutine.
	Workers int
}

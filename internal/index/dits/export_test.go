package dits

// Bridges for the external tests of this directory (package dits_test),
// which may import internal/index/ditsfile where this package's own tests
// cannot.
var (
	RandomNodes = randomNodes
	TestGrid    = testGrid
	DensePatch  = densePatch
	BruteCounts = bruteCounts
	AllCounts   = allCounts
)

// ForceInvMap switches the leaf to the mutable Inv map, as the first
// mutation to reach it would, leaving its content unchanged.
func (n *TreeNode) ForceInvMap() {
	n.EnsureLoaded()
	n.ensureInv()
}

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

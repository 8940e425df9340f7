package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted samples, 0 when there are none.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps a rank that is a whole number in exact arithmetic
	// (p99.99 of 100000) from being pushed up by floating-point dust.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return sorted[min(max(i, 0), n-1)]
}

// tailLadder is the set of percentiles a tail may be reported at, each
// with the share of samples beyond it written as one in so many.
var tailLadder = []struct {
	p     float64
	oneIn int
}{{99.99, 10000}, {99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {50, 2}}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it, so the reported tail is a measurement and
// not the luck of the one or two slowest requests. It returns p = 0 when
// even the median has fewer than ten samples above it.
func tailPercentile(sorted []float64) (p, value float64) {
	for _, q := range tailLadder {
		if len(sorted) >= 10*q.oneIn {
			return q.p, percentile(sorted, q.p)
		}
	}
	return 0, 0
}

// trimmedMean is the mean of sorted samples without the lowest and the
// highest tenth, 0 when there are none. Where a distribution is flat around
// its median (OJSP latency spans 1 to 10 ms evenly) the median of a sample
// moves by several percent on chance alone and this moves by a third of that.
func trimmedMean(sorted []float64) float64 {
	cut := len(sorted) / 10
	return mean(sorted[cut : len(sorted)-cut])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance pipeline computes its spreads with. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return median(xs), median(xs)
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure every bound is compared against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

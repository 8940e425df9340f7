package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The tail is the highest percentile that still leaves ten samples beyond
// it: with n samples that is the largest ladder step p with n(1-p) >= 10.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, // not even the median has ten samples above it
		{20, 50},
		{99, 50},
		{100, 90},
		{199, 90},
		{200, 95},
		{999, 95},
		{1000, 99},
		{10000, 99.9},
		{100000, 99.99},
	} {
		p, v := tailPercentile(seq(c.n))
		if p != c.want {
			t.Errorf("n=%d: tail percentile p%g, want p%g", c.n, p, c.want)
		}
		if p > 0 {
			if beyond := float64(c.n) - v; beyond < 10 {
				t.Errorf("n=%d: p%g leaves %g samples beyond it", c.n, p, beyond)
			}
		}
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4, 4, 5, 7}, 3, 6},
		{[]float64{5, 9}, 4, 10},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread(1..10) = %g, want 1 (5.5 / 5.5)", got)
	}
}

func TestTrimmedMeanDropsATenthAtEachEnd(t *testing.T) {
	xs := seq(20) // 1..20: drops 1, 2, 19, 20
	xs[19] = 1e9
	if got := trimmedMean(xs); got != 10.5 {
		t.Errorf("trimmedMean(1..19, 1e9) = %g, want 10.5", got)
	}
	if got := trimmedMean([]float64{4, 6}); got != 5 {
		t.Errorf("trimmedMean of two = %g, want their mean", got)
	}
	if got := trimmedMean(nil); got != 0 {
		t.Errorf("trimmedMean of nothing = %g, want 0", got)
	}
}

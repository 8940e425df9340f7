package cellset

import (
	"math"
	"math/rand"
	"testing"

	"dits/internal/geo"
)

func TestDistPaperExample(t *testing.T) {
	// Example 3: S_D1={9,11}, S_D2={1,3}, S_D3={12,13} on the 4x4 grid.
	d1 := New(9, 11)
	d2 := New(1, 3)
	d3 := New(12, 13)
	if d := DistNaive(d1, d2); d != 1 {
		t.Errorf("dist(D1,D2) = %v, want 1", d)
	}
	if d := DistNaive(d1, d3); d != 1 {
		t.Errorf("dist(D1,D3) = %v, want 1", d)
	}
	if d := DistNaive(d2, d3); math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Errorf("dist(D2,D3) = %v, want sqrt2", d)
	}
}

func TestDistEmpty(t *testing.T) {
	if !math.IsInf(DistNaive(nil, New(1)), 1) {
		t.Error("DistNaive with empty set should be +Inf")
	}
	if !math.IsInf(DistNaive(New(1), nil), 1) {
		t.Error("DistNaive with empty set should be +Inf")
	}
	if WithinDist(nil, New(1), 100) {
		t.Error("empty set is never connected")
	}
}

func TestDistZeroOnOverlap(t *testing.T) {
	a := New(5, 9, 77)
	b := New(3, 77, 200)
	if d := DistNaive(a, b); d != 0 {
		t.Errorf("overlapping sets dist = %v, want 0", d)
	}
	if !WithinDist(a, b, 0) {
		t.Error("overlapping sets should be connected at δ=0")
	}
}

func TestWithinDistMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		a := randomGridSet(rng, 1+rng.Intn(40))
		b := randomGridSet(rng, 1+rng.Intn(40))
		d := DistNaive(a, b)
		for _, delta := range []float64{0, 1, 2, 5, 10, 20, 64} {
			want := d <= delta
			if got := WithinDist(a, b, delta); got != want {
				t.Fatalf("trial %d δ=%v: WithinDist = %v, want %v (true dist %v)",
					trial, delta, got, want, d)
			}
		}
	}
}

func TestWithinDistNegativeDelta(t *testing.T) {
	if WithinDist(New(1), New(1), -1) {
		t.Error("negative δ should never connect")
	}
}

func randomGridSet(rng *rand.Rand, n int) Set {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = geo.ZEncode(uint32(rng.Intn(64)), uint32(rng.Intn(64)))
	}
	return New(ids...)
}

func BenchmarkWithinDistHash(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randomGridSet(rng, 500)
	y := randomGridSet(rng, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WithinDist(x, y, 2)
	}
}

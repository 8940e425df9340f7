package load

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dits/internal/admission"
)

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if n := h.count.Load(); n != 1000 {
		t.Fatalf("count = %d", n)
	}
	// Log-linear buckets bound relative error at ~2^-histSubBits.
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
		{0.999, 999 * time.Millisecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if rel := absDiff(got, c.want); rel > 0.05 {
			t.Errorf("q%.3f = %v, want ~%v (rel err %.3f)", c.q, got, c.want, rel)
		}
	}
	if h.Max() != time.Second {
		t.Errorf("max = %v", h.Max())
	}
	if m := h.Mean(); absDiff(m, 500500*time.Microsecond) > 0.01 {
		t.Errorf("mean = %v", m)
	}
}

func absDiff(got, want time.Duration) float64 {
	d := float64(got-want) / float64(want)
	if d < 0 {
		d = -d
	}
	return d
}

func TestHistQuantileNeverExceedsMax(t *testing.T) {
	var h Hist
	h.Observe(3 * time.Millisecond)
	if got := h.Quantile(1); got > 3*time.Millisecond {
		t.Fatalf("q1.0 = %v beyond the observed max", got)
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("overlap=70, coverage=15,batch=10,ingest=5")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Overlap: 70, Coverage: 15, Batch: 10, Ingest: 5}) {
		t.Fatalf("mix = %+v", m)
	}
	for _, bad := range []string{"", "overlap=0", "walk=3", "overlap", "overlap=-1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) should fail", bad)
		}
	}
}

func TestMixPickRespectsWeights(t *testing.T) {
	m := Mix{Overlap: 1, Ingest: 1}
	rng := rand.New(rand.NewSource(7))
	counts := map[Op]int{}
	for i := 0; i < 4000; i++ {
		counts[m.pick(rng)]++
	}
	if counts[OpCoverage]+counts[OpBatch] != 0 {
		t.Fatalf("zero-weight classes drawn: %v", counts)
	}
	if counts[OpOverlap] < 1600 || counts[OpIngest] < 1600 {
		t.Fatalf("unbalanced draw: %v", counts)
	}
}

// TestClosedLoopAgainstLocalGateway drives the full stack: generated
// federation, real HTTP listener, mixed traffic including ingest upserts.
func TestClosedLoopAgainstLocalGateway(t *testing.T) {
	lg, err := StartLocal(LocalOptions{Sources: 2, Scale: 0.005, Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	res, err := Run(context.Background(), Options{
		Target:       lg.URL,
		Mode:         "closed",
		Clients:      4,
		Duration:     400 * time.Millisecond,
		IngestSource: lg.IngestSource,
		ClientID:     "loadtest",
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.OK == 0 {
		t.Fatalf("no traffic completed: %+v", res)
	}
	if res.NetErrors+res.ServerErrors+res.ClientErrors != 0 {
		t.Fatalf("unexpected errors: %+v", res)
	}
	if res.Throughput <= 0 || res.P50Ms <= 0 || res.P99Ms < res.P50Ms {
		t.Fatalf("implausible latency stats: %+v", res)
	}
	var sent int64
	for _, c := range res.PerOp {
		sent += c.Sent
	}
	if sent != res.Sent {
		t.Fatalf("per-op sent %d != total %d", sent, res.Sent)
	}
}

// TestOpenLoopShedsUnderTightAdmission points a hot open loop at a gateway
// admitting ~10 req/s: most arrivals must come back 429 and be counted as
// shed, and the overall shed rate must show it.
func TestOpenLoopShedsUnderTightAdmission(t *testing.T) {
	lg, err := StartLocal(LocalOptions{
		Sources: 1, Scale: 0.005,
		Admission: admission.Config{Rate: 10, Burst: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	res, err := Run(context.Background(), Options{
		Target:   lg.URL,
		Mode:     "open",
		Rate:     200,
		Duration: 300 * time.Millisecond,
		Mix:      Mix{Overlap: 1},
		ClientID: "shedtest",
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("tight admission shed nothing: %+v", res)
	}
	if res.ShedRate <= 0.3 {
		t.Fatalf("shed rate = %.2f, want most of a 20x overload shed", res.ShedRate)
	}
	if res.OK == 0 {
		t.Fatalf("everything shed — burst should admit some: %+v", res)
	}
}

func TestRunValidatesOptions(t *testing.T) {
	cases := []Options{
		{},                           // no target
		{Target: "x", Mode: "bogus"}, // bad mode
		{Target: "x", Mode: "open"},  // open loop without rate
	}
	for i, o := range cases {
		if _, err := Run(context.Background(), o); err == nil {
			t.Errorf("case %d: Run should reject %+v", i, o)
		}
	}
}

// TestOpenLoopMeasuresFromIntendedStart pins the coordinated-omission
// correction: with a server that stalls every request far beyond the
// arrival interval, measured latency must stack queueing delay (later
// arrivals wait longer than the service time alone).
func TestOpenLoopMeasuresFromIntendedStart(t *testing.T) {
	lg, err := StartLocal(LocalOptions{
		Sources: 1, Scale: 0.005,
		Admission: admission.Config{MaxInFlight: 1}, // serialize the server
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	// Offered interval 5ms << service time: arrivals queue behind the
	// single in-flight slot, so p99 must exceed several intervals even
	// though each individual request is fast.
	res, err := Run(context.Background(), Options{
		Target:   lg.URL,
		Mode:     "open",
		Rate:     200,
		Duration: 250 * time.Millisecond,
		Mix:      Mix{Coverage: 1}, // the expensive class
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent < 10 {
		t.Fatalf("too few arrivals: %+v", res)
	}
	if res.P99Ms <= res.P50Ms {
		t.Fatalf("queueing must skew the tail: p50=%.2fms p99=%.2fms", res.P50Ms, res.P99Ms)
	}
}

func ExampleParseMix() {
	m, _ := ParseMix("overlap=80,ingest=20")
	fmt.Println(m.Overlap, m.Ingest)
	// Output: 80 20
}

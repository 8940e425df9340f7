package metrics

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Sum() != 0 {
		t.Fatal("nil histogram must be empty")
	}
	var v *CounterVec
	v.With("x").Inc()
	if len(v.Snapshot()) != 0 {
		t.Fatal("nil vec must read 0")
	}
	var hv *HistogramVec
	hv.With("x").Observe(1)
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

// TestHistogramQuantiles checks the cumulative buckets a scraper estimates
// quantiles from, and the count and sum that go with them.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8, 16})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%16) + 0.5) // uniform over [0.5, 15.5]
	}
	// Each cycle of 16 puts 1, 2, 4, 8 and 16 values at or below the
	// bounds; 6 full cycles plus 0.5, 1.5, 2.5 and 3.5.
	_, cum, count, _ := h.snapshot()
	if want := []int64{7, 14, 28, 52, 100, 100}; !slices.Equal(cum, want) || count != 100 {
		t.Fatalf("cumulative buckets %v, count %d; want %v, 100", cum, count, want)
	}
	// 6 full cycles of 0.5..15.5 (sum 128) plus 0.5+1.5+2.5+3.5.
	if math.Abs(h.Sum()-776) > 1e-6 {
		t.Fatalf("sum = %.2f, want 776", h.Sum())
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	if _, cum, _, _ := h.snapshot(); !slices.Equal(cum, []int64{0, 0, 1}) {
		t.Fatalf("cumulative buckets %v, want the observation in +Inf only", cum)
	}
}

func TestCounterVecConcurrent(t *testing.T) {
	var v CounterVec
	var wg sync.WaitGroup
	labels := []string{"a", "b", "c"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.With(labels[j%len(labels)]).Inc()
			}
		}(i)
	}
	wg.Wait()
	snap := v.Snapshot()
	var total int64
	for _, n := range snap {
		total += n
	}
	if total != 8000 {
		t.Fatalf("total = %d, want 8000", total)
	}
	if len(snap) != 3 {
		t.Fatalf("labels = %d, want 3", len(snap))
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(3)
	r.RegisterCounter("dits_test_total", "a test counter", &c)
	var g Gauge
	g.Add(-2)
	r.RegisterGauge("dits_test_gauge", "a test gauge", &g)
	var v CounterVec
	v.With("overlap.search").Add(5)
	v.With("coverage.round").Add(1)
	r.RegisterCounterVec("dits_test_method_total", "per method", "method", &v)
	hv := NewHistogramVec([]float64{0.1, 1})
	h := hv.With("overlap")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.RegisterHistogramVec("dits_test_seconds", "latency", "endpoint", hv)
	r.RegisterGaugeFunc("dits_test_fn", "from func", func() float64 { return 1.5 })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP dits_test_total a test counter",
		"# TYPE dits_test_total counter",
		"dits_test_total 3",
		"dits_test_gauge -2",
		`dits_test_method_total{method="coverage.round"} 1`,
		`dits_test_method_total{method="overlap.search"} 5`,
		"# TYPE dits_test_seconds histogram",
		`dits_test_seconds_bucket{endpoint="overlap",le="0.1"} 1`,
		`dits_test_seconds_bucket{endpoint="overlap",le="1"} 2`,
		`dits_test_seconds_bucket{endpoint="overlap",le="+Inf"} 3`,
		`dits_test_seconds_count{endpoint="overlap"} 3`,
		"dits_test_fn 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	hv := NewHistogramVec([]float64{1})
	hv.With("overlap").Observe(0.5)
	hv.With("batch").Observe(2)
	r.RegisterHistogramVec("dits_req_seconds", "per endpoint", "endpoint", hv)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`dits_req_seconds_bucket{endpoint="batch",le="1"} 0`,
		`dits_req_seconds_bucket{endpoint="overlap",le="1"} 1`,
		`dits_req_seconds_count{endpoint="batch"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// expectGolden compares a full exposition against a testdata golden file,
// byte for byte — the promtool-style check that bucket lines, the +Inf
// bucket, and the _sum/_count trailers appear exactly once and in order.
func expectGolden(t *testing.T, r *Registry, golden string) {
	t.Helper()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, sb.String(), want)
	}
}

func TestHistogramExpositionGolden(t *testing.T) {
	// Unsorted bounds with a duplicate and an explicit +Inf: the
	// constructor must sort, dedupe, and drop the +Inf so the exposition
	// carries exactly one le="+Inf" line.
	hv := NewHistogramVec([]float64{10, 1, 0.1, 1, math.Inf(1)})
	for _, v := range []float64{0.05, 0.5, 0.8, 10, 110} {
		hv.With("overlap").Observe(v)
	}
	r := NewRegistry()
	r.RegisterHistogramVec("dits_golden_seconds", "request latency", "endpoint", hv)
	expectGolden(t, r, "histogram.golden")
}

func TestHistogramVecExpositionGolden(t *testing.T) {
	hv := NewHistogramVec([]float64{0.5, 5})
	hv.With("overlap").Observe(0.2)
	hv.With("overlap").Observe(0.3)
	hv.With("overlap").Observe(7)
	hv.With("batch").Observe(2)
	r := NewRegistry()
	r.RegisterHistogramVec("dits_golden_vec_seconds", "request latency by endpoint", "endpoint", hv)
	expectGolden(t, r, "histogram_vec.golden")
}

func TestLabelValueEscaping(t *testing.T) {
	// Text-format 0.0.4 escapes exactly backslash, double-quote, and
	// newline in label values — and nothing else: a non-ASCII value must
	// pass through verbatim (Go-style \uXXXX escaping would corrupt it).
	var v CounterVec
	v.With(`back\slash`).Inc()
	v.With(`dou"ble`).Inc()
	v.With("new\nline").Inc()
	v.With("café").Inc()
	r := NewRegistry()
	r.RegisterCounterVec("dits_esc_total", "escaping", "src", &v)
	hv := NewHistogramVec([]float64{1})
	hv.With(`a\"b`).Observe(0.5)
	r.RegisterHistogramVec("dits_esc_seconds", "escaping", "src", hv)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`dits_esc_total{src="back\\slash"} 1`,
		`dits_esc_total{src="dou\"ble"} 1`,
		`dits_esc_total{src="new\nline"} 1`,
		`dits_esc_total{src="café"} 1`,
		`dits_esc_seconds_bucket{src="a\\\"b",le="1"} 1`,
		`dits_esc_seconds_count{src="a\\\"b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `\u`) || strings.Contains(out, `\x`) {
		t.Errorf("Go-style escapes leaked into exposition:\n%s", out)
	}
}

// Package load is the load generator behind cmd/ditsload and the soak
// tests: open- and closed-loop generators driving mixed
// OJSP/CJSP/batch/ingest traffic at a gateway over real HTTP, with
// latency recorded into a bounded log-linear histogram.
//
// The open loop paces arrivals on a fixed schedule and measures each
// request from its INTENDED start time, so a stalled server inflates the
// recorded latencies instead of silently slowing the offered rate — the
// coordinated-omission correction every honest load generator needs. The
// closed loop runs N clients back-to-back and measures service time.
package load

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histSubBits is the number of linear sub-bucket bits per power of two.
// 5 bits = 32 sub-buckets, bounding the relative quantile error at ~3%.
const histSubBits = 5

// histBuckets covers int64 nanoseconds: 64 octaves of 2^histSubBits
// sub-buckets (a few KB of counters — cheap enough to keep per run).
const histBuckets = 64 << histSubBits

// Hist is a log-linear latency histogram over nanosecond durations:
// bounded memory regardless of run length, lock-free observation, ~3%
// quantile error. The zero value is ready to use.
type Hist struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// histIndex maps a nanosecond value to its bucket.
func histIndex(v int64) int {
	if v < 1 {
		v = 1
	}
	exp := bits.Len64(uint64(v)) - 1
	sub := 0
	if exp > histSubBits {
		sub = int((v >> (exp - histSubBits)) & ((1 << histSubBits) - 1))
	} else {
		// Small values: the octave has fewer than 2^histSubBits integers;
		// spread them over the low sub-buckets.
		sub = int(v & ((1 << histSubBits) - 1))
	}
	return exp<<histSubBits | sub
}

// histValue returns a representative (midpoint) value for a bucket.
func histValue(i int) int64 {
	exp := i >> histSubBits
	sub := int64(i & ((1 << histSubBits) - 1))
	if exp <= histSubBits {
		return sub
	}
	base := int64(1) << exp
	width := int64(1) << (exp - histSubBits)
	return base + sub*width + width/2
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Mean returns the mean observation as a duration (0 when empty).
func (h *Hist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation.
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the q-quantile (0 < q <= 1) as a duration, accurate to
// the bucket width (~3% relative). Returns 0 with no observations.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			v := histValue(i)
			if m := h.max.Load(); v > m {
				v = m // never report beyond the observed max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max.Load())
}

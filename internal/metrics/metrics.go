// Package metrics provides the lock-free latency histograms and counters
// the benchmark harness uses to report the paper's performance metrics:
// throughput (PUTs + ROTs per second), and average and 99th-percentile
// operation latencies (§5.2, "Performance metrics").
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBucketBits fixes the histogram's relative precision: 2^5 = 32
// sub-buckets per power of two keeps quantile error under ~3%, comparable
// to HdrHistogram at 2 significant digits.
const subBucketBits = 5

const (
	subBuckets = 1 << subBucketBits
	numBuckets = 64 * subBuckets
)

// Histogram is a lock-free log-bucketed latency histogram — a
// heap-allocated StaticHist, kept as a distinct named type for its
// constructor-based API.
type Histogram struct{ StaticHist }

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // ≥ subBucketBits
	sub := (v >> (uint(exp) - subBucketBits)) & (subBuckets - 1)
	return (exp-subBucketBits+1)*subBuckets + int(sub)
}

// bucketMid returns a representative value for bucket i (midpoint).
func bucketMid(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	exp := uint(i/subBuckets) + subBucketBits - 1
	sub := uint64(i % subBuckets)
	lo := (1 << exp) | (sub << (exp - subBucketBits))
	// Half the bucket width. The shift must be parenthesized: without it,
	// `1 << (exp-subBucketBits) / 2` parses as `1 << ((exp-subBucketBits)/2)`,
	// which collapsed large-bucket midpoints toward the lower edge and
	// biased reported P50/P99 low (see TestBucketMidRoundTrip).
	return lo + (1<<(exp-subBucketBits))/2
}

// percentile walks a bucket array for the p-th percentile of n
// observations, falling back to maxv past the last bucket.
func percentile(buckets []atomic.Uint64, n uint64, maxv time.Duration, p float64) time.Duration {
	if n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen uint64
	for i := range buckets {
		seen += buckets[i].Load()
		if seen > rank {
			return time.Duration(bucketMid(i))
		}
	}
	return maxv
}

// Snapshot copies the histogram into a frozen view for reporting.
func (h *StaticHist) Snapshot() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
}

// Summary is a frozen histogram digest.
type Summary struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// StaticHist is a Histogram variant whose zero value is ready to use: the
// bucket array is inline rather than heap-allocated, so it can be embedded
// in always-on stats structs (transport.Stats) that promise a usable zero
// value. Same bucket layout and precision as Histogram.
type StaticHist struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64
}

// Record adds one latency observation.
func (h *StaticHist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *StaticHist) Count() uint64 { return h.count.Load() }

// Mean returns the average observation.
func (h *StaticHist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation.
func (h *StaticHist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Percentile returns the p-th percentile (0 < p ≤ 100).
func (h *StaticHist) Percentile(p float64) time.Duration {
	return percentile(h.buckets[:], h.count.Load(), h.Max(), p)
}

// Reset zeroes the histogram (used at the warmup/measurement boundary). The
// fields are zeroed one store at a time, so a Record racing a Reset can
// survive in some of them and not in others; quiesce writers first when the
// books must balance.
func (h *StaticHist) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

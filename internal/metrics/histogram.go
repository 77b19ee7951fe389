// Package metrics provides the engine's production observability
// primitives: a zero-allocation fixed-bucket latency histogram
// (HDR-style log-linear buckets), a Prometheus text-format exposition
// writer, and an online competitive-ratio monitor that streams the
// cost ledger against the offline optimum on sliding windows — the
// paper's guarantee as a continuously monitored SLO metric.
//
// Everything here is stdlib-only and allocation-free on the record
// path: Histogram is a plain value type (a fixed bucket array plus a
// few scalars), so it can live inside a shard's counter record and be
// published by value with it without touching the heap.
package metrics

import "math/bits"

// Log-linear bucket layout: values below subBuckets get one bucket
// each (exact); every power-of-two octave above that is split into
// subBuckets linear sub-buckets, bounding the relative error of any
// reconstructed quantile by 1/subBuckets = 12.5%. With 8 sub-buckets
// and the full int64 range the layout needs 8 + 60*8 = 488 buckets
// (~3.9 KB as int64 counts) — small enough to copy per batch into the
// published stats record, precise enough for p50/p99/p999 over
// nanosecond latencies.
const (
	bucketBits = 3
	subBuckets = 1 << bucketBits // 8 linear sub-buckets per octave
	// NumBuckets is the fixed bucket count: subBuckets exact unit
	// buckets plus (63 - bucketBits) octaves of subBuckets each.
	NumBuckets = subBuckets + (63-bucketBits)*subBuckets
)

// Histogram is a fixed-bucket log-linear histogram of non-negative
// int64 samples (nanosecond latencies, in this repo). The zero value
// is an empty histogram ready for use. It is a value type with no
// internal pointers: copying it snapshots it, and recording into it
// never allocates. It is NOT goroutine-safe — the engine confines each
// histogram to its shard's single-writer worker and publishes
// immutable copies.
type Histogram struct {
	counts [NumBuckets]int64
	count  int64
	sum    int64
	max    int64
	min    int64 // valid when count > 0
}

// bucketIndex maps a sample to its bucket. Negative samples clamp to
// bucket 0 (they do not occur on the timing paths; clamping keeps the
// method total).
func bucketIndex(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v))     // v in [2^(e-1), 2^e), e >= bucketBits+1
	m := v >> uint(e-1-bucketBits) // mantissa in [subBuckets, 2*subBuckets)
	return (e-1-bucketBits)*subBuckets + int(m)
}

// BucketBound returns the inclusive upper bound of bucket i: the
// largest sample value the bucket can hold. Bounds are strictly
// increasing in i.
func BucketBound(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	oct := i/subBuckets - 1               // octaves above the unit range
	m := int64(i%subBuckets) + subBuckets // mantissa in [8, 16)
	return (m+1)<<uint(oct) - 1
}

// Record adds one sample.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n samples of value v in one update. The engine uses it
// to record a batch's amortized per-request latency with weight =
// batch size, so request-weighted quantiles come out of per-batch
// timing without a clock read per request.
func (h *Histogram) RecordN(v int64, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * n
}

// Merge folds other into h (fleet-level aggregation of per-shard
// histograms).
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i, c := range other.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the q-quantile (0 < q <= 1) by nearest rank: the
// upper bound of the bucket containing the ceil(q*count)-th smallest
// sample, clamped to the exact observed maximum. Returns 0 for an
// empty histogram; q outside (0,1] clamps to the nearest endpoint.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	// Nearest rank: the smallest rank r with r >= q*count.
	rank := int64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			b := BucketBound(i)
			if b > h.max {
				b = h.max
			}
			return b
		}
	}
	return h.max
}

// Buckets calls fn for every non-empty bucket in increasing order with
// the bucket's inclusive upper bound, its own count, and the
// cumulative count up to and including it. Used by the Prometheus
// exposition to emit a sparse cumulative bucket series.
func (h *Histogram) Buckets(fn func(bound, count, cum int64)) {
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		fn(BucketBound(i), c, cum)
	}
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

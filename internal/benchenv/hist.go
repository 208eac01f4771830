package benchenv

// Histogram is the repository's one latency aggregator: an HDR-style
// log-linear histogram over non-negative nanosecond values, behind
// nomad-loadgen's request latency percentiles (its printed p50/p99
// lines and the -out record).
//
// Layout: values below 64ns are exact; above that, each power-of-two
// range is split into 32 linear sub-buckets, bounding the relative
// quantization error at 1/32 ≈ 3.1% — far below run-to-run noise on a
// shared VM, at ~15KiB per histogram. Recording is a single index
// increment, so per-request overhead is negligible next to an HTTP
// round trip.
//
// A Histogram is not safe for concurrent use; load generators keep one
// per worker and Merge them at the end (the HDR recorder idiom), which
// keeps the hot path free of shared-cacheline contention.

import (
	"math/bits"
	"time"
)

// histBuckets covers every int64 nanosecond value: group 0 holds the
// 64 exact values below 2^6, then 58 log groups of 32 sub-buckets.
const histBuckets = 59 * 32

// Histogram records a latency distribution. The zero value is ready to
// use.
type Histogram struct {
	counts [histBuckets]int64
	count  int64
	sum    int64 // total nanoseconds, for Mean
	min    int64
	max    int64
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	exp := bits.Len64(u) - 6
	if exp < 0 {
		exp = 0
	}
	return exp*32 + int(u>>uint(exp))
}

// bucketMid returns the representative (midpoint) value of a bucket.
func bucketMid(idx int) int64 {
	if idx < 64 {
		return int64(idx)
	}
	exp := idx/32 - 1
	lo := int64(idx-exp*32) << uint(exp)
	return lo + (int64(1)<<uint(exp))/2
}

// Record adds one observation. Negative durations (clock skew) clamp
// to zero rather than corrupting the distribution.
func (h *Histogram) Record(d time.Duration) {
	v := d.Nanoseconds()
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the exact mean of the recorded values (the sum is kept
// outside the buckets, so Mean carries no quantization error).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Max returns the exact largest recorded value.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Min returns the exact smallest recorded value.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Quantile returns the q-quantile (q in [0,1]) of the recorded
// distribution, within the bucket quantization bound, clamped to the
// exact observed [min, max]. Quantile(0.99) is the p99.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.count-1)) + 1 // 1-based rank of the quantile observation
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// LatencySummary is the JSON shape of a summarized Histogram, embedded
// in nomad-loadgen's -out record (microseconds: readable from the
// ~100µs loopback-HTTP scale up to multi-second stalls).
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Summary snapshots the histogram's headline percentiles.
func (h *Histogram) Summary() LatencySummary {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return LatencySummary{
		Count:  h.count,
		MeanUs: us(h.Mean()),
		P50Us:  us(h.Quantile(0.50)),
		P90Us:  us(h.Quantile(0.90)),
		P99Us:  us(h.Quantile(0.99)),
		P999Us: us(h.Quantile(0.999)),
		MaxUs:  us(h.Max()),
	}
}

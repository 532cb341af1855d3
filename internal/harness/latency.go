package harness

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latencyBuckets is the histogram size: 64 octaves x 4 sub-buckets gives
// ~19% resolution over the full nanosecond range with a fixed footprint.
const latencyBuckets = 64 * 4

// LatencyRecorder is a concurrency-safe log-scale latency histogram. A load
// generator records per-operation durations into it; percentiles come out
// with bucket-level (~19%) resolution, which is plenty for p50/p99-style
// reporting without per-op allocation or locking.
type LatencyRecorder struct {
	buckets [latencyBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// bucketOf maps a duration to its histogram bucket: the exponent (bit
// length) picks the octave, the top two mantissa bits the sub-bucket.
func bucketOf(d time.Duration) int {
	ns := uint64(d)
	if ns == 0 {
		return 0
	}
	exp := bits.Len64(ns) - 1 // 0..63
	var sub uint64
	if exp >= 2 {
		sub = (ns >> (uint(exp) - 2)) & 3
	}
	return exp<<2 | int(sub)
}

// bucketUpper returns the inclusive upper bound of bucket i in nanoseconds.
func bucketUpper(i int) int64 {
	exp, sub := uint(i>>2), uint64(i&3)
	if exp < 2 {
		return int64(1) << (exp + 1)
	}
	// Upper edge of the sub-bucket: (4+sub+1) * 2^(exp-2) - 1.
	return int64((4+sub+1)<<(exp-2)) - 1
}

// Record adds one operation's duration.
func (r *LatencyRecorder) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.buckets[bucketOf(d)].Add(1)
	r.count.Add(1)
	r.sum.Add(int64(d))
	for {
		cur := r.max.Load()
		if int64(d) <= cur || r.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of recorded operations.
func (r *LatencyRecorder) Count() int64 { return r.count.Load() }

// mean returns the mean recorded latency.
func (r *LatencyRecorder) mean() time.Duration {
	n := r.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(r.sum.Load() / n)
}

// maxLatency returns the largest recorded latency.
func (r *LatencyRecorder) maxLatency() time.Duration { return time.Duration(r.max.Load()) }

// percentile returns the latency at quantile p in [0, 1], to bucket
// resolution. Concurrent Records skew the result slightly; snapshot after
// the workload for exact numbers.
func (r *LatencyRecorder) percentile(p float64) time.Duration {
	total := r.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := 0; i < latencyBuckets; i++ {
		seen += r.buckets[i].Load()
		if seen > rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return r.maxLatency()
}

// LatencyJSON is one recorder's summary in microseconds, the "latency"
// object of the JSON that dbloadgen writes.
type LatencyJSON struct {
	Ops        int64   `json:"ops"`
	MeanMicros float64 `json:"mean_us"`
	P50Micros  float64 `json:"p50_us"`
	P90Micros  float64 `json:"p90_us"`
	P99Micros  float64 `json:"p99_us"`
	P999Micros float64 `json:"p999_us"`
	MaxMicros  float64 `json:"max_us"`
}

// JSON summarizes the recorder, or returns nil when it holds no sample.
func (r *LatencyRecorder) JSON() *LatencyJSON {
	if r == nil || r.Count() == 0 {
		return nil
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return &LatencyJSON{
		Ops:        r.Count(),
		MeanMicros: us(r.mean()),
		P50Micros:  us(r.percentile(0.50)),
		P90Micros:  us(r.percentile(0.90)),
		P99Micros:  us(r.percentile(0.99)),
		P999Micros: us(r.percentile(0.999)),
		MaxMicros:  us(r.maxLatency()),
	}
}

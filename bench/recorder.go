package main

import (
	"math"
	"slices"
)

// recorder keeps one client's raw per-op latencies as uint32 nanoseconds
// in a slice sized before the timed loop: no histogram buckets, and no
// allocation while timing. A sample above ~4.29 s saturates.
type recorder struct{ ns []uint32 }

func newRecorder(capacity int) *recorder { return &recorder{ns: make([]uint32, 0, capacity)} }

func (r *recorder) add(ns int64) {
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	} else if ns < 0 {
		ns = 0
	}
	r.ns = append(r.ns, uint32(ns))
}

// merged returns the sorted samples of all recorders in a fresh slice.
func merged(recs ...*recorder) []uint32 {
	n := 0
	for _, r := range recs {
		n += len(r.ns)
	}
	all := make([]uint32, 0, n)
	for _, r := range recs {
		all = append(all, r.ns...)
	}
	slices.Sort(all)
	return all
}

// percentile is the exact order statistic: the smallest sample with at
// least p of the samples at or below it. sorted must be ascending; an empty
// slice gives 0.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// supported reports whether n samples support percentile p under the rule
// "report the highest percentile that has at least ten samples beyond it".
func supported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= 10
}

// usPercentile is percentile in microseconds, or 0 when the sample does
// not support p.
func usPercentile(sorted []uint32, p float64) float64 {
	if !supported(len(sorted), p) {
		return 0
	}
	return percentile(sorted, p) / 1e3
}

package main

import (
	"math"
	"testing"
)

// The samples 1..1000 ns, dealt to two clients out of order: the order
// statistics are known exactly.
func TestPercentilesOfKnownDistribution(t *testing.T) {
	a, b := newRecorder(500), newRecorder(500)
	r := newRNG(1, 1)
	for i, v := range permutation(r, 1000) {
		rec := a
		if i%2 == 1 {
			rec = b
		}
		rec.add(int64(v) + 1)
	}
	all := merged(a, b)
	if len(all) != 1000 {
		t.Fatalf("merged %d samples, want 1000", len(all))
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.001, 1}} {
		if got := percentile(all, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := usPercentile(all, 0.99); got != 0.990 {
		t.Errorf("usPercentile(0.99) = %g us, want 0.990", got)
	}
	// p999 of 1000 samples has one sample beyond it, not ten.
	if got := usPercentile(all, 0.999); got != 0 {
		t.Errorf("usPercentile(0.999) = %g, want 0: 1000 samples do not support it", got)
	}
}

func TestAtLeastTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, // 990th is p99, ten beyond
		{999, 0.99, false}, // nine beyond
		{20, 0.50, true},
		{19, 0.50, false},
		{10000, 0.999, true},
		{9999, 0.999, false},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestRecorderSaturatesAndDoesNotAllocate(t *testing.T) {
	r := newRecorder(2000)
	r.add(5e9)
	r.add(-1)
	if r.ns[0] != math.MaxUint32 || r.ns[1] != 0 {
		t.Fatalf("got %v, want saturation at both ends", r.ns)
	}
	r.ns = r.ns[:0]
	if n := testing.AllocsPerRun(1000, func() { r.add(1234) }); n != 0 {
		t.Fatalf("add allocates %.1f times per call within capacity", n)
	}
}

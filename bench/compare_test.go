package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got := spread(vals); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %g, want 1 (5.5 / 5.5)", got)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10, 20, 40]
	if q1, q3 := quartiles([]float64{40, 10, 20}); q1 != 10 || q3 != 40 {
		t.Fatalf("quartiles of three = %g, %g, want 10, 40", q1, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{"op_p50_us", "us", "lower", 0.10}
	higher := metricDef{"ops_per_s", "ops/s", "higher", 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01, c} }
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(104), verdictUnchanged},
		{lower, steady(100), steady(115), verdictWorse},
		{lower, steady(100), steady(85), verdictBetter},
		{higher, steady(100), steady(85), verdictWorse},
		{higher, steady(100), steady(115), verdictBetter},
		{lower, []float64{80, 100, 120, 90, 110}, steady(130), verdictUnresolved},
	} {
		if got, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64, failed int) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 5; seed++ {
			res := &result{Workload: "scan", Seed: seed, Attempted: 1000, Failed: failed, Metrics: map[string]measure{
				"ops_per_s": {opsPerS + float64(seed), "ops/s"},
			}}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 1000, 0)
	var out strings.Builder
	if worse, err := compareFiles(&out, base, write("same.jsonl", 1001, 0)); err != nil || worse {
		t.Fatalf("same speed: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), verdictUnchanged) {
		t.Fatalf("no %q in:\n%s", verdictUnchanged, out.String())
	}
	if worse, err := compareFiles(&out, base, write("slow.jsonl", 700, 0)); err != nil || !worse {
		t.Fatalf("30%% slower: worse=%v err=%v", worse, err)
	}
	if worse, err := compareFiles(&out, base, write("failing.jsonl", 1000, 1)); err != nil || !worse {
		t.Fatalf("more failures: worse=%v err=%v", worse, err)
	}
}

package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json and the tables in this package say the same thing.
func TestBenchmarkJSONMatchesThePackage(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", b.PerLayer, perLayer)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the package pins %d", b.RunSeconds, runSeconds)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(b.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the package", len(b.Workloads), len(gated))
	}
	for i, w := range gated {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// smokeConfig is 1/200 of ISSUE 11's full size, 5000 keys: every count of
// the pinned set-up divided by 100.
func smokeConfig() config {
	c := pinned()
	for _, n := range []*int{&c.keys, &c.fillOverwrites, &c.loadOverwrites, &c.warmupOps, &c.crashOps,
		&c.fillRound, &c.getUniformRound, &c.getZipfRound, &c.scanRound, &c.mixedRound} {
		*n /= 100
	}
	c.cacheBytes /= 100
	return c
}

// Every workload at 1/200 of the full size, untraced and traced: every
// metric BENCHMARK.json names is emitted, finite and has its unit, and
// nothing fails. This is the CI hook: plain `go test ./...` runs it.
func TestSmokeEveryWorkload(t *testing.T) {
	b := readBenchmarkJSON(t)
	r := &runner{cfg: smokeConfig(), seconds: 0.01, log: io.Discard}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			want := b.EndToEnd
			if traced {
				tr = &tracer{}
				want = b.PerLayer
			}
			res, err := r.run(w, 1, tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is not emitted", w.name, traced, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, d.Name, m.Value)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				}
			}
			if traced {
				if v := res.Metrics["pebblesdb.failed_frac"].Value; v != 0 {
					t.Errorf("%s: failed_frac = %v", w.name, v)
				}
				if v := res.Metrics["pebblesdb.lost_acked_writes"].Value; v != 0 {
					t.Errorf("%s: lost_acked_writes = %v", w.name, v)
				}
			}
		}
	}
}

// A traffic check that is not met fails a traced run at the pinned scale,
// and is only printed at the smoke test's, where no store is big enough to
// meet it.
func TestTrafficChecksFailTheRun(t *testing.T) {
	uniform, _ := findWorkload("read-uniform")
	fill, _ := findWorkload("fill")
	for _, c := range []struct {
		w      workload
		metric string
		value  float64
		met    bool
	}{
		{uniform, "cache.hit_ratio", 0.07, true},
		{uniform, "cache.hit_ratio", 0.5, false},
		{fill, "pebblesdb.write_amp_half2_vs_whole", 1.03, true},
		{fill, "pebblesdb.write_amp_half2_vs_whole", 1.2, false},
		{fill, "pebblesdb.write_amp_half2_vs_whole", 0.8, false},
	} {
		res := &result{Metrics: map[string]measure{c.metric: {c.value, "ratio"}}}
		r := &runner{cfg: pinned(), log: io.Discard}
		if err := r.trafficChecks(res, c.w, nil); (err == nil) != c.met {
			t.Errorf("%s with %s = %g at the pinned scale: err = %v, met should be %v", c.w.name, c.metric, c.value, err, c.met)
		}
		r.cfg = smokeConfig()
		if err := r.trafficChecks(res, c.w, nil); err != nil {
			t.Errorf("%s with %s = %g at the smoke scale: %v", c.w.name, c.metric, c.value, err)
		}
	}
}

// A value whose header is wrong is counted as a failure by every reader:
// the full scan after fill, a get, and a scan that passes over it.
func TestCorruptedHeaderIsCounted(t *testing.T) {
	cfg := smokeConfig()
	w, _ := findWorkload("read-uniform")
	res, err := setup(w, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.st.db.Close()
	if res.failed != 0 {
		t.Fatalf("%d failures before any corruption", res.failed)
	}
	const victim = 1234
	var key [keyLen]byte
	var val [valueLen]byte
	putKey(key[:], victim)
	res.g.putValue(val[:], victim)
	val[0] ^= 0xff
	if err := res.st.db.Put(key[:], val[:]); err != nil {
		t.Fatal(err)
	}

	if _, failed, err := verifyFill(res.st, res.g); err != nil || failed != 1 {
		t.Errorf("full scan counted %d failures (err %v), want 1", failed, err)
	}
	for _, c := range []struct {
		kind opKind
		ops  []uint32
		want int
	}{
		{kindGetUniform, []uint32{victim - 1, victim, victim + 1}, 1},
		{kindScan, []uint32{victim - 5, victim + 1}, 1},
	} {
		rs, err := runRound(res.st, res.g, c.kind, [][]uint32{c.ops}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rs.failed != c.want {
			t.Errorf("kind %d counted %d failures, want %d", c.kind, rs.failed, c.want)
		}
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per workload x end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved" // the run-to-run spread is wider than the bound
)

// runSet is the untraced results of one -out file.
type runSet struct {
	values            map[string]map[string][]float64 // workload -> metric -> one value per run
	attempted, failed int
}

func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{values: map[string]map[string][]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set.attempted += res.Attempted
		set.failed += res.Failed
		if res.Traced {
			continue
		}
		byMetric := set.values[res.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			set.values[res.Workload] = byMetric
		}
		for name, m := range res.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func (s *runSet) failedFrac() float64 { return ratio(float64(s.failed), float64(s.attempted)) }

// verdict judges the medians of two sets of runs of one metric. worse is
// how far b's median is on the wrong side of a's, as a share of a's.
func verdict(def metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma)
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a) > def.Bound || spread(b) > def.Bound:
		return verdictUnresolved, worse
	case worse > def.Bound:
		return verdictWorse, worse
	case worse < -def.Bound:
		return verdictBetter, worse
	}
	return verdictUnchanged, worse
}

// compareFiles prints, per workload x end-to-end metric, the medians and
// spreads of both sets, the change against the metric's bound and a
// verdict. It reports whether anything is worse: a metric beyond its
// bound, or a higher share of failed operations.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-18s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "median_a", "iqr_a", "median_b", "iqr_b", "worse_by", "bound", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values[wl.name][def.Name], b.values[wl.name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, by := verdict(def, va, vb)
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, "%-13s %-18s %14.4f %6.1f%% %14.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.name, def.Name, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*by, 100*def.Bound, v)
		}
	}
	fmt.Fprintf(w, "failed_frac: %.6f (%d/%d) -> %.6f (%d/%d)\n",
		a.failedFrac(), a.failed, a.attempted, b.failedFrac(), b.failed, b.attempted)
	if b.failedFrac() > a.failedFrac() {
		worse = true
	}
	return worse, nil
}

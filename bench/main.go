// Command bench is the benchmark of record for this repository: six pinned
// closed-loop workloads against the public pebblesdb API on an in-memory
// filesystem, the end-to-end metrics BENCHMARK.json lists, and, in a
// separate traced run, spans around every call into the store plus
// per-layer driver and counter metrics. See README.md in this directory.
//
//	go run ./bench                                   all six workloads, end-to-end metrics
//	go run ./bench -trace spans.jsonl                the same, then traced: per-layer metrics, spans in spans-<workload>.jsonl
//	go run ./bench -workload scan -seed 3 -trace 1   one workload, per-layer metrics on the last line
//	go run ./bench -compare a.jsonl b.jsonl          verdict per workload x metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (fill, fill-leveled, read-uniform, read-zipf, scan, mixed); empty runs all six")
		seed    = flag.Uint64("seed", 1, "seed of every generator")
		seconds = flag.Float64("seconds", runSeconds, "how long the timed phase measures (fill and fill-leveled always run their whole op stream once)")
		trace   = flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; anything else: traced run, spans written to that file")
		out     = flag.String("out", "", "append every run's result to this file as a JSON line, for -compare")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	fmt.Printf("GOMAXPROCS=%d nproc=%d clients=%d keys=%d cache=%d B seed=%d seconds=%g\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), numClients, pinned().keys, pinned().cacheBytes, *seed, *seconds)

	r := &runner{cfg: pinned(), seconds: *seconds, log: os.Stdout}
	run := func(w workload, traced bool) *result {
		var tr *tracer
		if traced {
			tr = &tracer{}
		}
		res, err := r.run(w, *seed, tr)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		res.print()
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal(err)
			}
		}
		if traced && *trace != "1" {
			// One file per workload when all six run: span ids start over
			// with every run.
			path := *trace
			if *name == "" {
				ext := filepath.Ext(path)
				path = strings.TrimSuffix(path, ext) + "-" + w.name + ext
			}
			if err := tr.writeFile(path); err != nil {
				fatal(err)
			}
		}
		res.tracer = nil // the spans are large; the summary keeps only the metrics
		return res
	}

	if *name != "" {
		// One workload, as the driver runs it: the last line is the result.
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res := run(w, *trace != "0")
		line, err := json.Marshal(struct {
			Correct   bool               `json:"correct"`
			Attempted int                `json:"attempted"`
			Failed    int                `json:"failed"`
			Metrics   map[string]measure `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	// All six, in order. The summary ends with "claim": null: this
	// benchmark measures, it does not claim.
	summary := struct {
		Results []*result `json:"results"`
		// Yardstick is write_amp on fill-leveled over write_amp on fill.
		Yardstick float64 `json:"leveled.write_amp_vs_flsm"`
		Claim     *string `json:"claim"`
	}{}
	ok := true
	for _, w := range workloads {
		res := run(w, false)
		summary.Results = append(summary.Results, res)
		ok = ok && res.Correct
		if *trace != "0" {
			res = run(w, true)
			summary.Results = append(summary.Results, res)
			ok = ok && res.Correct
		}
	}
	amp := func(name string) float64 {
		for _, res := range summary.Results {
			if res.Workload == name && !res.Traced {
				return res.Metrics["write_amp"].Value
			}
		}
		return 0
	}
	summary.Yardstick = ratio(amp("fill-leveled"), amp("fill"))
	fmt.Printf("leveled.write_amp_vs_flsm = %.3f (write_amp %.3f on fill-leveled / %.3f on fill)\n",
		summary.Yardstick, amp("fill-leveled"), amp("fill"))
	line, err := json.Marshal(summary)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// print lists every metric of the run by name, with its unit.
func (res *result) print() {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("%s seed=%d %s: attempted=%d failed=%d rounds=%d\n", res.Workload, res.Seed, kind, res.Attempted, res.Failed, res.rounds)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

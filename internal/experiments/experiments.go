// Package experiments regenerates every table and figure in the paper's
// evaluation (chapter 5, plus Figure 1.1 and the §2.2 B+-tree claim). Each
// experiment is a function over a Config whose Scale divides the paper's
// key counts; EXPERIMENTS.md records the scale used for the published
// numbers in this repository. cmd/experiments runs them.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"pebblesdb/internal/harness"
)

// Config parameterizes an experiment run.
type Config struct {
	// Out receives the human-readable report.
	Out io.Writer
	// Scale divides the paper's operation counts (e.g. 500 turns Figure
	// 1.1's 500M inserts into 1M). Minimum 1.
	Scale int
	// StoreScale divides the stores' size parameters (memtables, level
	// budgets, file-size targets, caches) so small datasets still flow
	// through as many levels and compactions as the paper's full-size
	// runs. Preset ratios are preserved. 0 or 1 keeps paper parameters.
	StoreScale int
	// Threads for multi-threaded workloads (paper: 4).
	Threads int
}

// stores returns the paper's four store specs with StoreScale applied.
func (c Config) stores() []harness.Spec {
	specs := harness.DefaultStores()
	for i := range specs {
		harness.Scale(specs[i].Options, c.StoreScale)
	}
	return specs
}

func (c Config) scaled(paperCount int) int {
	s := c.Scale
	if s < 1 {
		s = 1
	}
	n := paperCount / s
	if n < 1000 {
		n = 1000
	}
	return n
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// Registry maps experiment ids (figure/table numbers) to runners, for
// cmd/experiments.
var Registry = map[string]func(Config) error{
	"fig1.1":   Fig1WriteAmplification,
	"tab5.1":   Table51SSTableSizes,
	"tab5.2":   Table52UpdateThroughput,
	"fig5.1b":  Fig51bMicrobenchmarks,
	"fig5.1c":  Fig51cMultithreaded,
	"fig5.1d":  Fig51dCached,
	"fig5.1e":  Fig51eSmallValues,
	"fig5.2a":  Fig52aAging,
	"fig5.2b":  Fig52bLowMemory,
	"fig5.3":   Fig53SpaceAmplification,
	"fig5.4":   Fig54EmptyGuards,
	"fig5.5":   Fig55YCSB,
	"fig5.6a":  Fig56aHyperDex,
	"fig5.6b":  Fig56bMongoDB,
	"tab5.4":   Table54Memory,
	"ablation": Ablations,
	"btree":    BTreeWriteAmplification,
}

// Names returns the registry keys in a stable order.
func Names() []string {
	var names []string
	for k := range Registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Fig1WriteAmplification reproduces Figure 1.1 / Figure 5.1a: total write
// IO and write amplification for random inserts (16 B keys, 128 B values)
// across the four stores. Paper (500M keys): PebblesDB ~2.5x lower write
// amplification than RocksDB/HyperLevelDB, ~1.6x lower than LevelDB.
func Fig1WriteAmplification(cfg Config) error {
	n := cfg.scaled(500_000_000)
	w := cfg.out()
	fmt.Fprintf(w, "== Figure 1.1 / 5.1a: write amplification, %d random inserts (16B/128B) ==\n", n)
	var results []harness.Result
	for _, spec := range cfg.stores() {
		db, err := harness.Open(spec)
		if err != nil {
			return err
		}
		res, err := harness.Measure(db, spec.Name, "write-amp", int64(n), func() error {
			if err := harness.FillRandom(db, n, n, 128, 1); err != nil {
				return err
			}
			return db.WaitIdle()
		})
		db.Close()
		if err != nil {
			return err
		}
		results = append(results, res)
		fmt.Fprintf(w, "  %-14s writeIO %8.3f GB  writeAmp %6.2f\n", spec.Name, res.WriteGB, res.WriteAmp)
	}
	base := results[0]
	for _, r := range results[1:] {
		fmt.Fprintf(w, "  %s/%s write-amp ratio: %.2fx\n", r.Store, base.Store, r.WriteAmp/base.WriteAmp)
	}
	return nil
}

// Table51SSTableSizes reproduces Table 5.1: the sstable size distribution
// for PebblesDB vs HyperLevelDB after a 50M-key load (scaled). Paper:
// PebblesDB has fewer, larger tables (mean 17.2 MB vs 13.3 MB; p95 68 MB
// vs 16.6 MB).
func Table51SSTableSizes(cfg Config) error {
	n := cfg.scaled(50_000_000)
	w := cfg.out()
	fmt.Fprintf(w, "== Table 5.1: sstable size distribution after %d inserts (16B/1KB) ==\n", n)
	for _, spec := range cfg.stores()[:2] { // PebblesDB, HyperLevelDB
		db, err := harness.Open(spec)
		if err != nil {
			return err
		}
		if err := harness.FillRandom(db, n, n, 1024, 1); err != nil {
			db.Close()
			return err
		}
		if err := db.WaitIdle(); err != nil {
			db.Close()
			return err
		}
		d := harness.SSTableSizes(db)
		db.Close()
		fmt.Fprintf(w, "  %-14s tables %5d  mean %7.2f MB  median %7.2f  p90 %7.2f  p95 %7.2f\n",
			spec.Name, d.Count, d.MeanMB, d.MedianMB, d.P90MB, d.P95MB)
	}
	return nil
}

// Table52UpdateThroughput reproduces Table 5.2: throughput for inserting
// 50M pairs then updating them twice. Paper (KOps/s): PebblesDB 56/48/43,
// HyperLevelDB 40/25/20, LevelDB 22/12/12, RocksDB 14/8/7 — PebblesDB
// retains ~75% of its insert throughput while others drop to ~50%.
func Table52UpdateThroughput(cfg Config) error {
	n := cfg.scaled(50_000_000)
	w := cfg.out()
	fmt.Fprintf(w, "== Table 5.2: insert + 2 update rounds of %d keys (16B/1KB) ==\n", n)
	for _, spec := range cfg.stores() {
		db, err := harness.Open(spec)
		if err != nil {
			return err
		}
		var rows []float64
		for round := 0; round < 3; round++ {
			res, err := harness.Measure(db, spec.Name, fmt.Sprintf("round%d", round), int64(n), func() error {
				if err := harness.FillRandom(db, n, n, 1024, int64(round+1)); err != nil {
					return err
				}
				return db.WaitIdle()
			})
			if err != nil {
				db.Close()
				return err
			}
			rows = append(rows, res.KOpsPerSec)
		}
		db.Close()
		fmt.Fprintf(w, "  %-14s insert %8.1f  update1 %8.1f  update2 %8.1f KOps/s (retention %4.0f%%)\n",
			spec.Name, rows[0], rows[1], rows[2], 100*rows[2]/rows[0])
	}
	return nil
}

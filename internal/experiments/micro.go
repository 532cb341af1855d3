package experiments

import (
	"fmt"

	"pebblesdb"
	"pebblesdb/internal/harness"
)

// Fig51bMicrobenchmarks reproduces Figure 5.1b: single-threaded db_bench
// workloads — sequential writes, random writes, random reads, random
// seeks, deletes (16 B keys, 1 KB values). Paper: PebblesDB wins random
// writes 2.7x over HyperLevelDB but loses sequential writes 3x (no trivial
// moves); reads comparable; seeks ~30% slower on a compacted store.
func Fig51bMicrobenchmarks(cfg Config) error {
	nWrite := cfg.scaled(50_000_000)
	nRead := cfg.scaled(10_000_000)
	w := cfg.out()
	fmt.Fprintf(w, "== Figure 5.1b: single-threaded micro-benchmarks (%d writes, %d reads/seeks) ==\n", nWrite, nRead)
	var results []harness.Result

	for _, spec := range cfg.stores() {
		// fillseq on a fresh store.
		db, err := harness.Open(spec)
		if err != nil {
			return err
		}
		res, err := harness.Measure(db, spec.Name, "fillseq", int64(nWrite), func() error {
			if err := harness.FillSeq(db, nWrite, 1024, 1); err != nil {
				return err
			}
			return db.WaitIdle()
		})
		db.Close()
		if err != nil {
			return err
		}
		results = append(results, res)

		// fillrandom on a fresh store; reads and seeks run on its output.
		db, err = harness.Open(spec)
		if err != nil {
			return err
		}
		res, err = harness.Measure(db, spec.Name, "fillrandom", int64(nWrite), func() error {
			if err := harness.FillRandom(db, nWrite, nWrite, 1024, 2); err != nil {
				return err
			}
			return db.WaitIdle()
		})
		if err != nil {
			db.Close()
			return err
		}
		results = append(results, res)

		// Paper: reads/seeks are measured after giving the store time to
		// compact.
		if err := db.CompactAll(); err != nil {
			db.Close()
			return err
		}
		res, err = harness.Measure(db, spec.Name, "readrandom", int64(nRead), func() error {
			_, err := harness.ReadRandom(db, nRead, nWrite, 3)
			return err
		})
		if err != nil {
			db.Close()
			return err
		}
		results = append(results, res)

		nSeek := nRead / 10
		res, err = harness.Measure(db, spec.Name, "seekrandom", int64(nSeek), func() error {
			return harness.SeekRandom(db, nSeek, nWrite, 0, 4)
		})
		if err != nil {
			db.Close()
			return err
		}
		results = append(results, res)

		res, err = harness.Measure(db, spec.Name, "deleterandom", int64(nRead), func() error {
			if err := harness.DeleteRandom(db, nRead, nWrite, 5); err != nil {
				return err
			}
			return db.WaitIdle()
		})
		db.Close()
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	harness.Table(w, results, "HyperLevelDB")
	return nil
}

// Fig51cMultithreaded reproduces Figure 5.1c: 4-thread writes, reads, and
// a mixed 2r+2w workload under the RocksDB parameter set (64 MB memtable,
// large level 0). Paper: PebblesDB achieves 3.3x RocksDB's multithreaded
// write throughput and wins the mixed workload.
func Fig51cMultithreaded(cfg Config) error {
	n := cfg.scaled(10_000_000)
	threads := cfg.Threads
	if threads <= 0 {
		threads = 4
	}
	w := cfg.out()
	fmt.Fprintf(w, "== Figure 5.1c: %d-thread workloads, %d ops each (RocksDB params) ==\n", threads, n)
	var results []harness.Result

	for _, spec := range harness.DefaultStores() {
		// The paper runs this experiment with the RocksDB configuration on
		// every store.
		o := *spec.Options
		o.MemtableSize = 64 << 20
		o.L0SlowdownTrigger = 20
		o.L0StopTrigger = 24
		harness.Scale(&o, cfg.StoreScale)
		sp := harness.Spec{Name: spec.Name, Options: &o}

		db, err := harness.Open(sp)
		if err != nil {
			return err
		}
		per := n / threads
		res, err := harness.Measure(db, spec.Name, "mt-write", int64(per*threads), func() error {
			return harness.Concurrent(threads, func(th int) error {
				return harness.FillRandom(db, per, n, 1024, int64(100+th))
			})
		})
		if err != nil {
			db.Close()
			return err
		}
		results = append(results, res)
		db.WaitIdle()

		res, err = harness.Measure(db, spec.Name, "mt-read", int64(per*threads), func() error {
			return harness.Concurrent(threads, func(th int) error {
				_, err := harness.ReadRandom(db, per, n, int64(200+th))
				return err
			})
		})
		if err != nil {
			db.Close()
			return err
		}
		results = append(results, res)

		res, err = harness.Measure(db, spec.Name, "mt-mixed", int64(per*threads), func() error {
			return harness.Concurrent(threads, func(th int) error {
				if th%2 == 0 {
					_, err := harness.ReadRandom(db, per, n, int64(300+th))
					return err
				}
				return harness.FillRandom(db, per, n, 1024, int64(300+th))
			})
		})
		db.Close()
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	harness.Table(w, results, "HyperLevelDB")
	return nil
}

// Fig51dCached reproduces Figure 5.1d: a dataset that fits in memory (1M x
// 1KB in the paper), where FLSM's extra per-guard work is visible; it also
// runs PebblesDB-1 (max_sstables_per_guard=1), which recovers most of the
// read/seek gap (§3.5).
func Fig51dCached(cfg Config) error {
	n := cfg.scaled(1_000_000)
	w := cfg.out()
	fmt.Fprintf(w, "== Figure 5.1d: fully-cached dataset, %d keys (16B/1KB) ==\n", n)
	specs := []harness.Spec{
		{Name: "PebblesDB", Options: pebblesdb.PresetPebblesDB.Options()},
		{Name: "HyperLevelDB", Options: pebblesdb.PresetHyperLevelDB.Options()},
		{Name: "PebblesDB-1", Options: pebblesdb.PresetPebblesDB1.Options()},
	}
	var results []harness.Result
	for _, spec := range specs {
		// Large caches: everything stays resident.
		harness.Scale(spec.Options, cfg.StoreScale)
		spec.Options.BlockCacheSize = 2 << 30
		db, err := harness.Open(spec)
		if err != nil {
			return err
		}
		res, err := harness.Measure(db, spec.Name, "fillrandom", int64(n), func() error {
			if err := harness.FillRandom(db, n, n, 1024, 1); err != nil {
				return err
			}
			return db.WaitIdle()
		})
		if err != nil {
			db.Close()
			return err
		}
		results = append(results, res)

		res, err = harness.Measure(db, spec.Name, "readrandom", int64(n), func() error {
			_, err := harness.ReadRandom(db, n, n, 2)
			return err
		})
		if err != nil {
			db.Close()
			return err
		}
		results = append(results, res)

		nSeek := n / 10
		res, err = harness.Measure(db, spec.Name, "seekrandom", int64(nSeek), func() error {
			return harness.SeekRandom(db, nSeek, n, 0, 3)
		})
		db.Close()
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	harness.Table(w, results, "HyperLevelDB")
	return nil
}

// Fig51eSmallValues reproduces Figure 5.1e: 300M (scaled) small key-value
// pairs (16 B keys, 128 B values). Paper: PebblesDB still wins writes with
// equivalent reads and seeks.
func Fig51eSmallValues(cfg Config) error {
	n := cfg.scaled(300_000_000)
	w := cfg.out()
	fmt.Fprintf(w, "== Figure 5.1e: small pairs, %d keys (16B/128B) ==\n", n)
	var results []harness.Result
	for _, spec := range cfg.stores() {
		db, err := harness.Open(spec)
		if err != nil {
			return err
		}
		res, err := harness.Measure(db, spec.Name, "fillrandom-small", int64(n), func() error {
			if err := harness.FillRandom(db, n, n, 128, 1); err != nil {
				return err
			}
			return db.WaitIdle()
		})
		if err != nil {
			db.Close()
			return err
		}
		results = append(results, res)

		nRead := n / 5
		res, err = harness.Measure(db, spec.Name, "readrandom-small", int64(nRead), func() error {
			_, err := harness.ReadRandom(db, nRead, n, 2)
			return err
		})
		db.Close()
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	harness.Table(w, results, "HyperLevelDB")
	return nil
}

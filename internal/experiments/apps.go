package experiments

import (
	"fmt"
	"math/rand"

	"pebblesdb"
	"pebblesdb/internal/apps"
	"pebblesdb/internal/experiments/btree"
	"pebblesdb/internal/harness"
	"pebblesdb/internal/vfs"
	"pebblesdb/internal/ycsb"
)

// runYCSBSuite loads then runs the full YCSB suite against store, printing
// per-workload throughput. ioStats, if non-nil, is sampled before and
// after to report total write IO.
func runYCSBSuite(cfg Config, label string, store ycsb.Store, recordsA, recordsE, opsEach uint64, report func(workload string, opsPerSec float64)) error {
	threads := cfg.Threads
	if threads <= 0 {
		threads = 4
	}
	r := ycsb.NewRunner(store)

	// Load A, then workloads A-D and F.
	if _, err := r.Load(recordsA, 1024, threads, 1); err != nil {
		return err
	}
	report("LoadA", 0) // placeholder; Load throughput reported by caller if needed
	for _, name := range []string{"A", "B", "C", "D", "F"} {
		res, err := r.Run(ycsb.Workloads[name], ycsb.RunnerOptions{
			RecordCount: recordsA, OpCount: opsEach, Threads: threads, ValueSize: 1024, Seed: 7,
		})
		if err != nil {
			return err
		}
		report(name, res.OpsPerSec)
	}
	// Load E then E, per Table 5.3.
	if _, err := r.Load(recordsE, 1024, threads, 2); err != nil {
		return err
	}
	resE, err := r.Run(ycsb.Workloads["E"], ycsb.RunnerOptions{
		RecordCount: recordsE, OpCount: opsEach / 10, Threads: threads, ValueSize: 1024, Seed: 8,
	})
	if err != nil {
		return err
	}
	report("E", resE.OpsPerSec)
	return nil
}

// Fig55YCSB reproduces Figure 5.5: the full YCSB suite with 4 threads and
// RocksDB parameters across the four stores, plus total write IO. Paper:
// PebblesDB wins write-dominated workloads (Load A, Load E) 1.5-2x,
// matches elsewhere, and writes ~2x less IO than RocksDB.
func Fig55YCSB(cfg Config) error {
	loadN := uint64(cfg.scaled(50_000_000))
	opsEach := uint64(cfg.scaled(10_000_000))
	w := cfg.out()
	fmt.Fprintf(w, "== Figure 5.5: YCSB suite, load %d records, %d ops/workload ==\n", loadN, opsEach)

	for _, spec := range harness.DefaultStores() {
		o := *spec.Options
		o.MemtableSize = 64 << 20
		o.L0SlowdownTrigger = 20
		o.L0StopTrigger = 24
		harness.Scale(&o, cfg.StoreScale)
		db, err := harness.Open(harness.Spec{Name: spec.Name, Options: &o})
		if err != nil {
			return err
		}
		before := db.Metrics()
		fmt.Fprintf(w, " %s:\n", spec.Name)
		err = runYCSBSuite(cfg, spec.Name, harness.DBAdapter{DB: db}, loadN, loadN, opsEach,
			func(workload string, opsPerSec float64) {
				if opsPerSec > 0 {
					fmt.Fprintf(w, "   %-6s %10.1f KOps/s\n", workload, opsPerSec/1000)
				}
			})
		if err != nil {
			db.Close()
			return err
		}
		db.WaitIdle()
		after := db.Metrics()
		io := after.IO.Sub(before.IO)
		fmt.Fprintf(w, "   %-6s %10.3f GB total write IO\n", "IO", float64(io.TotalWritten())/(1<<30))
		db.Close()
	}
	return nil
}

// Fig56aHyperDex reproduces Figure 5.6a: YCSB against a HyperDex-style
// server (application latency + read-before-write) backed by PebblesDB vs
// HyperLevelDB. Paper: PebblesDB lifts HyperDex throughput up to 59%
// (Load E) while reducing write IO.
func Fig56aHyperDex(cfg Config) error {
	loadN := uint64(cfg.scaled(20_000_000))
	opsEach := uint64(cfg.scaled(10_000_000))
	w := cfg.out()
	fmt.Fprintf(w, "== Figure 5.6a: HyperDex shim, load %d records ==\n", loadN)

	backends := []harness.Spec{
		{Name: "HyperDex+HyperLevelDB", Options: harness.Scale(tweak16MB(pebblesdb.PresetHyperLevelDB.Options()), cfg.StoreScale)},
		{Name: "HyperDex+PebblesDB", Options: harness.Scale(tweak16MB(pebblesdb.PresetPebblesDB.Options()), cfg.StoreScale)},
	}
	for _, spec := range backends {
		db, err := harness.Open(spec)
		if err != nil {
			return err
		}
		before := db.Metrics()
		server := apps.NewHyperDex(harness.DBAdapter{DB: db})
		fmt.Fprintf(w, " %s:\n", spec.Name)
		err = runYCSBSuite(cfg, spec.Name, server, loadN, loadN*3/2, opsEach,
			func(workload string, opsPerSec float64) {
				if opsPerSec > 0 {
					fmt.Fprintf(w, "   %-6s %10.1f KOps/s\n", workload, opsPerSec/1000)
				}
			})
		if err != nil {
			db.Close()
			return err
		}
		db.WaitIdle()
		io := db.Metrics().IO.Sub(before.IO)
		fmt.Fprintf(w, "   %-6s %10.3f GB total write IO\n", "IO", float64(io.TotalWritten())/(1<<30))
		db.Close()
	}
	return nil
}

// tweak16MB applies the HyperDex default 16 MB memtable (§5.4).
func tweak16MB(o *pebblesdb.Options) *pebblesdb.Options {
	o.MemtableSize = 16 << 20
	return o
}

// Fig56bMongoDB reproduces Figure 5.6b: a MongoDB-style server over three
// storage engines — WiredTiger (the checkpointing B+ tree), RocksDB-style
// leveled LSM, and PebblesDB — with 8 MB cache and 16 MB memtables.
// Paper: both LSMs beat WiredTiger on all workloads; PebblesDB matches
// RocksDB's throughput while writing ~40% less IO (and 4% less than
// WiredTiger).
func Fig56bMongoDB(cfg Config) error {
	loadN := uint64(cfg.scaled(20_000_000))
	opsEach := uint64(cfg.scaled(10_000_000))
	w := cfg.out()
	fmt.Fprintf(w, "== Figure 5.6b: MongoDB shim, load %d records ==\n", loadN)

	type backend struct {
		name string
		open func() (ycsb.Store, func() (float64, error), error) // store, close->writeGB
	}
	mongoOpts := func(p pebblesdb.Preset) *pebblesdb.Options {
		o := p.Options()
		o.MemtableSize = 16 << 20
		o.BlockCacheSize = 8 << 20
		return harness.Scale(o, cfg.StoreScale)
	}
	backends := []backend{
		{name: "MongoDB+WiredTiger", open: func() (ycsb.Store, func() (float64, error), error) {
			fs := vfs.NewCounting(vfs.NewMem())
			bt, err := btree.Open(fs, "wt", btree.Options{CheckpointEvery: 16 << 20})
			if err != nil {
				return nil, nil, err
			}
			return bt, func() (float64, error) {
				err := bt.Close()
				return float64(fs.Stats().TotalWritten()) / (1 << 30), err
			}, nil
		}},
		{name: "MongoDB+RocksDB", open: func() (ycsb.Store, func() (float64, error), error) {
			db, err := harness.Open(harness.Spec{Name: "RocksDB", Options: mongoOpts(pebblesdb.PresetRocksDB)})
			if err != nil {
				return nil, nil, err
			}
			return harness.DBAdapter{DB: db}, func() (float64, error) {
				db.WaitIdle()
				gb := float64(db.Metrics().IO.TotalWritten()) / (1 << 30)
				return gb, db.Close()
			}, nil
		}},
		{name: "MongoDB+PebblesDB", open: func() (ycsb.Store, func() (float64, error), error) {
			db, err := harness.Open(harness.Spec{Name: "PebblesDB", Options: mongoOpts(pebblesdb.PresetPebblesDB)})
			if err != nil {
				return nil, nil, err
			}
			return harness.DBAdapter{DB: db}, func() (float64, error) {
				db.WaitIdle()
				gb := float64(db.Metrics().IO.TotalWritten()) / (1 << 30)
				return gb, db.Close()
			}, nil
		}},
	}

	for _, b := range backends {
		store, finish, err := b.open()
		if err != nil {
			return err
		}
		server := apps.NewMongoDB(store)
		fmt.Fprintf(w, " %s:\n", b.name)
		err = runYCSBSuite(cfg, b.name, server, loadN, loadN*3/2, opsEach,
			func(workload string, opsPerSec float64) {
				if opsPerSec > 0 {
					fmt.Fprintf(w, "   %-6s %10.1f KOps/s\n", workload, opsPerSec/1000)
				}
			})
		if err != nil {
			finish()
			return err
		}
		gb, err := finish()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "   %-6s %10.3f GB total write IO\n", "IO", gb)
	}
	return nil
}

// Table54Memory reproduces Table 5.4: memory consumed by the stores for
// write, read and seek workloads. Paper (MB): writes Hyper 159 / RocksDB
// 896 / Pebbles 434; reads 154/36/500; seeks 111/34/430 — PebblesDB pays
// for resident sstable bloom filters.
func Table54Memory(cfg Config) error {
	n := cfg.scaled(100_000_000)
	w := cfg.out()
	fmt.Fprintf(w, "== Table 5.4: resident store memory after %d inserts + reads + seeks ==\n", n)
	for _, spec := range cfg.stores() {
		db, err := harness.Open(spec)
		if err != nil {
			return err
		}
		if err := harness.FillRandom(db, n, n, 1024, 1); err != nil {
			db.Close()
			return err
		}
		db.WaitIdle()
		if _, err := harness.ReadRandom(db, n/10, n, 2); err != nil {
			db.Close()
			return err
		}
		if err := harness.SeekRandom(db, n/100, n, 0, 3); err != nil {
			db.Close()
			return err
		}
		m := db.Metrics()
		resident := m.MemtableBytes + m.Cache.FilterBytes + m.Cache.IndexBytes
		fmt.Fprintf(w, "  %-14s memtable %6.2f MB  bloom filters %6.2f MB  index blocks %6.2f MB  total %6.2f MB (open tables %d)\n",
			spec.Name,
			float64(m.MemtableBytes)/(1<<20),
			float64(m.Cache.FilterBytes)/(1<<20),
			float64(m.Cache.IndexBytes)/(1<<20),
			float64(resident)/(1<<20),
			m.Cache.OpenTables)
		db.Close()
	}
	return nil
}

// Ablations reproduces the §5.2 "Impact of Different Optimizations"
// paragraph: range-query throughput without any optimization, with
// parallel seeks only, with seek-based compaction only; and read
// throughput with and without sstable bloom filters. Paper: range queries
// -66% bare, -48% parallel-seeks-only, -7% seek-compaction-only; bloom
// filters improve reads 63%.
func Ablations(cfg Config) error {
	n := cfg.scaled(50_000_000)
	w := cfg.out()
	fmt.Fprintf(w, "== §5.2 ablations, %d keys ==\n", n)

	variant := func(name string, mut func(*pebblesdb.Options)) (seek harness.Result, read harness.Result, err error) {
		o := pebblesdb.PresetPebblesDB.Options()
		mut(o)
		harness.Scale(o, cfg.StoreScale)
		db, err := harness.Open(harness.Spec{Name: name, Options: o})
		if err != nil {
			return seek, read, err
		}
		defer db.Close()
		if err = harness.FillRandom(db, n, n, 1024, 1); err != nil {
			return seek, read, err
		}
		if err = db.WaitIdle(); err != nil {
			return seek, read, err
		}
		nOps := n / 10
		seek, err = harness.Measure(db, name, "seeks", int64(nOps), func() error {
			return harness.SeekRandom(db, nOps, n, 0, 2)
		})
		if err != nil {
			return seek, read, err
		}
		read, err = harness.Measure(db, name, "reads", int64(nOps*2), func() error {
			_, err := harness.ReadRandom(db, nOps*2, n, 3)
			return err
		})
		return seek, read, err
	}

	type row struct {
		name string
		mut  func(*pebblesdb.Options)
	}
	rows := []row{
		{"full PebblesDB", func(o *pebblesdb.Options) {}},
		{"no optimizations", func(o *pebblesdb.Options) {
			o.ParallelSeeks = false
			o.SeekCompactionThreshold = -1
			o.SizeRatioPct = -1
		}},
		{"parallel seeks only", func(o *pebblesdb.Options) {
			o.SeekCompactionThreshold = -1
			o.SizeRatioPct = -1
		}},
		{"seek compaction only", func(o *pebblesdb.Options) {
			o.ParallelSeeks = false
		}},
		{"no bloom filters", func(o *pebblesdb.Options) {
			o.BloomBitsPerKey = -1
		}},
	}
	for _, r := range rows {
		seek, read, err := variant(r.name, r.mut)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-22s seeks %8.1f KOps/s  reads %8.1f KOps/s\n",
			r.name, seek.KOpsPerSec, read.KOpsPerSec)
	}
	return nil
}

// BTreeWriteAmplification reproduces the §2.2 claim that B+-tree stores
// (KyotoCabinet) suffer extreme write amplification under random inserts
// (paper: 100M inserts wrote 829 GB, 61x).
func BTreeWriteAmplification(cfg Config) error {
	n := cfg.scaled(100_000_000)
	w := cfg.out()
	fs := vfs.NewCounting(vfs.NewMem())
	bt, err := btree.Open(fs, "kc", btree.Options{})
	if err != nil {
		return err
	}
	val := make([]byte, 64)
	key := make([]byte, 0, 16)
	rng := newRand(1)
	for i := 0; i < n; i++ {
		rng.Read(val)
		key = harness.KeyAt(key, uint64(rng.Intn(n*4)))
		if err := bt.Put(key, val); err != nil {
			return err
		}
	}
	if err := bt.Close(); err != nil {
		return err
	}
	m := bt.Metrics()
	fmt.Fprintf(w, "== §2.2: B+-tree (KyotoCabinet-style) write amplification, %d random inserts ==\n", n)
	fmt.Fprintf(w, "  user %.3f GB, storage writes %.3f GB, write amp %.1fx (pages %d, checkpoints %d)\n",
		float64(m.UserBytes)/(1<<30),
		float64(m.JournalBytes+m.PageBytes)/(1<<30),
		m.WriteAmplification(), m.Pages, m.Checkpoints)
	return nil
}

// newRand returns a seeded *rand.Rand (kept here so apps.go owns its own
// randomness helper without widening the harness API).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Command dbbench is the db_bench-style micro-benchmark driver (§5.2). It
// runs fill/read/seek/delete workloads against any of the paper's store
// presets and reports throughput, IO and write amplification.
//
// Example:
//
//	dbbench -store=pebblesdb -benchmarks=fillrandom,readrandom,seekrandom \
//	        -num=1000000 -value_size=1024 -store_scale=64
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pebblesdb"
	"pebblesdb/internal/harness"
)

var (
	store       = flag.String("store", "pebblesdb", "store preset: pebblesdb, hyperleveldb, leveldb, rocksdb, pebblesdb1")
	benchmarks  = flag.String("benchmarks", "fillrandom,readrandom,seekrandom", "comma-separated workloads: fillseq, fillrandom, fillsync, readrandom, seekrandom, seekreverse, scanbounded, scanshort, deleterandom, retention")
	num         = flag.Int("num", 1_000_000, "operations per workload")
	valueSize   = flag.Int("value_size", 1024, "value size in bytes")
	nexts       = flag.Int("nexts", 0, "next() calls per seek")
	threads     = flag.Int("threads", 1, "concurrent worker threads")
	concurrency = flag.Int("concurrency", 0, "concurrent write clients for fill/delete workloads; 0 = same as -threads (multi-client write mode exercising the group-commit pipeline)")
	storeScale  = flag.Int("store_scale", 1, "divide store size parameters (memtable, level budgets) by this factor")
	dir         = flag.String("dir", "", "store directory on the OS filesystem; empty = in-memory")
	compact     = flag.Bool("compact_before_reads", true, "fully compact before read/seek workloads")
	seed        = flag.Int64("seed", 1, "workload RNG seed")
	compression = flag.String("compression", "snappy", "sstable block compression: none, snappy (values are ~50% compressible, like LevelDB db_bench)")
	tuned       = flag.String("tuned", "", "apply Options.Tuned with this memory target (e.g. 1GiB) after the preset and -store_scale; empty = off")
	prefixLen   = flag.Int("prefix_bloom_len", 14, "store PrefixBloomLength and scanshort prefix length (16-byte decimal keys: 14 spans 100 keys); 0 disables prefix filters")
	jsonPath    = flag.String("json", "", "write a machine-readable result file to this path (perf trajectory tracking; see BENCH_pr4.json)")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile covering the benchmark workloads to this path")

	// Retention workload shape: -num sequential puts arrive in windows of
	// retentionWindow keys; once retentionRetain windows are live the
	// oldest is dropped — by one DeleteRange, or per-key tombstones with
	// -retention_perkey (the pre-range-deletion baseline to compare
	// against).
	retentionWindow = flag.Int("retention_window", 0, "retention workload window size in keys; 0 = num/10")
	retentionRetain = flag.Int("retention_retain", 3, "retention workload live-window count")
	retentionPerKey = flag.Bool("retention_perkey", false, "drop retention windows with per-key deletes instead of DeleteRange")
)

type jsonWorkload struct {
	Name       string  `json:"name"`
	Ops        int64   `json:"ops"`
	DurationNS int64   `json:"duration_ns"`
	KOpsPerSec float64 `json:"kops_per_sec"`
	WriteGB    float64 `json:"write_gb"`
	ReadGB     float64 `json:"read_gb"`
	WriteAmp   float64 `json:"write_amp"`
	// AllocsPerOp is the process-wide heap-allocation delta divided by
	// ops — it includes background flush/compaction work, so read it as a
	// trend line, not a per-call truth (the AllocsPerRun regression tests
	// pin those).
	AllocsPerOp float64              `json:"allocs_per_op"`
	Latency     *harness.LatencyJSON `json:"latency,omitempty"`

	// Retention workload accounting (zero elsewhere): windows dropped, the
	// user bytes those windows had ingested (the reclamation target), and
	// the store's live table count/bytes once background work drained —
	// space actually reclaimed by tombstone-elision compaction.
	DeletedWindows   int64 `json:"deleted_windows,omitempty"`
	UserBytesDeleted int64 `json:"user_bytes_deleted,omitempty"`
	LiveTables       int64 `json:"live_tables,omitempty"`
	LiveBytes        int64 `json:"live_bytes,omitempty"`
}

type jsonReport struct {
	Store       string         `json:"store"`
	Compression string         `json:"compression"`
	Num         int            `json:"num"`
	ValueSize   int            `json:"value_size"`
	Threads     int            `json:"threads"`
	Concurrency int            `json:"concurrency"`
	StoreScale  int            `json:"store_scale"`
	Seed        int64          `json:"seed"`
	GoVersion   string         `json:"go_version"`
	Timestamp   string         `json:"timestamp"`
	Workloads   []jsonWorkload `json:"workloads"`

	// Metrics is the store's full end-of-run snapshot, every counter under
	// its own field name; the ratios below are derived from it.
	Metrics pebblesdb.Metrics `json:"metrics"`

	WriteAmplification    float64 `json:"write_amplification"`
	BatchesPerGroup       float64 `json:"batches_per_group"`
	SyncsPerCommit        float64 `json:"syncs_per_commit"`
	CompressionRatio      float64 `json:"compression_ratio"`
	PeakLevelParallelism  int     `json:"peak_level_parallelism"`
	TablesProbedPerGet    float64 `json:"tables_probed_per_get"`
	GetBlockCacheHitRatio float64 `json:"get_block_cache_hit_ratio"`
	IterTableSkipRatio    float64 `json:"iter_table_skip_ratio"`
}

func main() {
	flag.Parse()
	preset, ok := harness.PresetByName(*store)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown store %q\n", *store)
		os.Exit(2)
	}
	opts := preset.Options()
	switch strings.ToLower(*compression) {
	case "none":
		opts.Compression = pebblesdb.CompressionNone
	case "snappy", "":
		opts.Compression = pebblesdb.CompressionSnappy
	default:
		fmt.Fprintf(os.Stderr, "unknown compression %q\n", *compression)
		os.Exit(2)
	}
	if *prefixLen > 0 {
		opts.PrefixBloomLength = *prefixLen
	}
	harness.Scale(opts, *storeScale)
	if *tuned != "" {
		memBytes, err := harness.ParseBytes(*tuned)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -tuned: %v\n", err)
			os.Exit(2)
		}
		opts.Tuned(memBytes)
	}

	var db *pebblesdb.DB
	var err error
	if *dir == "" {
		db, err = harness.Open(harness.Spec{Name: preset.String(), Options: opts})
	} else {
		db, err = pebblesdb.Open(*dir, opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "open: %v\n", err)
		os.Exit(1)
	}
	defer db.Close()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var results []jsonWorkload
	written := false
	for _, bench := range strings.Split(*benchmarks, ",") {
		bench = strings.TrimSpace(bench)
		if bench == "" {
			continue
		}
		if !written && (bench == "readrandom" || bench == "seekrandom" || bench == "seekreverse" || bench == "scanbounded" || bench == "scanshort" || bench == "deleterandom") {
			fmt.Fprintf(os.Stderr, "note: %s without a prior fill reads an empty store\n", bench)
		}
		// Write workloads take their client count from -concurrency when
		// set, so the group-commit speedup is measurable from the CLI
		// without touching the read-side thread count.
		writeClients := *threads
		if *concurrency > 0 {
			writeClients = *concurrency
		}
		rec := &harness.LatencyRecorder{}
		window := *retentionWindow
		if window <= 0 {
			window = *num / 10
		}
		var deletedWindows int
		run := func() error {
			per := *num / *threads
			perW := *num / writeClients
			switch bench {
			case "retention":
				written = true
				var err error
				deletedWindows, err = harness.Retention(db, *num, window, *retentionRetain, *valueSize, *seed, *retentionPerKey, rec)
				return err
			case "fillseq":
				written = true
				return harness.Concurrent(writeClients, func(th int) error {
					return harness.FillSeq(db, perW, *valueSize, *seed+int64(th), rec)
				})
			case "fillrandom":
				written = true
				return harness.Concurrent(writeClients, func(th int) error {
					return harness.FillRandom(db, perW, *num, *valueSize, *seed+int64(th), rec)
				})
			case "fillsync":
				written = true
				return harness.Concurrent(writeClients, func(th int) error {
					return harness.FillSync(db, perW, *num, *valueSize, *seed+int64(th), rec)
				})
			case "readrandom":
				return harness.Concurrent(*threads, func(th int) error {
					_, err := harness.ReadRandom(db, per, *num, *seed+int64(th), rec)
					return err
				})
			case "seekrandom":
				return harness.Concurrent(*threads, func(th int) error {
					return harness.SeekRandom(db, per, *num, *nexts, *seed+int64(th), rec)
				})
			case "seekreverse":
				return harness.Concurrent(*threads, func(th int) error {
					return harness.SeekRandomReverse(db, per, *num, *nexts, *seed+int64(th), rec)
				})
			case "scanbounded":
				return harness.Concurrent(*threads, func(th int) error {
					span := *nexts
					if span < 1 {
						span = 10
					}
					_, err := harness.ScanBounded(db, per, *num, span, *seed+int64(th), rec)
					return err
				})
			case "scanshort":
				return harness.Concurrent(*threads, func(th int) error {
					p := *prefixLen
					if p <= 0 {
						p = 14
					}
					_, err := harness.ScanShort(db, per, *num, p, *seed+int64(th), rec)
					return err
				})
			case "deleterandom":
				return harness.Concurrent(writeClients, func(th int) error {
					return harness.DeleteRandom(db, perW, *num, *seed+int64(th), rec)
				})
			}
			return fmt.Errorf("unknown benchmark %q", bench)
		}

		// scanshort is deliberately absent from the compact-before-reads
		// list: prefix-bloom pruning exists to skip the overlapping tables
		// a live store accumulates (FLSM guard groups, L0 flushes), and a
		// fully compacted store leaves bounds pruning nothing to improve
		// on. Run it before the compacted read workloads to measure the
		// operating state.
		if *compact && (bench == "readrandom" || bench == "seekrandom" || bench == "seekreverse" || bench == "scanbounded") {
			if err := db.CompactAll(); err != nil {
				fmt.Fprintf(os.Stderr, "compact: %v\n", err)
				os.Exit(1)
			}
		}
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		res, err := harness.Measure(db, preset.String(), bench, int64(*num), func() error {
			if err := run(); err != nil {
				return err
			}
			return db.WaitIdle()
		})
		runtime.ReadMemStats(&msAfter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", bench, err)
			os.Exit(1)
		}
		allocsPerOp := float64(msAfter.Mallocs-msBefore.Mallocs) / float64(res.Ops)
		lat := rec.JSON()
		w := jsonWorkload{
			Name:        bench,
			Ops:         res.Ops,
			DurationNS:  res.Duration.Nanoseconds(),
			KOpsPerSec:  res.KOpsPerSec,
			WriteGB:     res.WriteGB,
			ReadGB:      res.ReadGB,
			WriteAmp:    res.WriteAmp,
			AllocsPerOp: allocsPerOp,
			Latency:     lat,
		}
		if bench == "retention" {
			tm := db.Metrics().Tree
			for _, n := range tm.LevelFiles {
				w.LiveTables += int64(n)
			}
			for _, b := range tm.LevelBytes {
				w.LiveBytes += b
			}
			w.DeletedWindows = int64(deletedWindows)
			w.UserBytesDeleted = int64(deletedWindows) * int64(window) * int64(16+*valueSize)
		}
		results = append(results, w)
		fmt.Printf("%-14s %12d ops  %10.1f KOps/s  %8.3f GB written  writeAmp %6.2f  %7.2f allocs/op",
			bench, res.Ops, res.KOpsPerSec, res.WriteGB, res.WriteAmp, allocsPerOp)
		if lat != nil {
			fmt.Printf("  p50 %.1fus p99 %.1fus", lat.P50Micros, lat.P99Micros)
		}
		fmt.Println()
		if bench == "retention" {
			fmt.Printf("  retention: %d windows dropped (%.1f MB user data), live after drain: %d tables / %.1f MB\n",
				w.DeletedWindows, float64(w.UserBytesDeleted)/(1<<20), w.LiveTables, float64(w.LiveBytes)/(1<<20))
		}
	}

	m := db.Metrics()
	fmt.Printf("\nstore: %s (compression %s)\n%s", preset, opts.Compression, m.String())

	if *jsonPath != "" {
		report := jsonReport{
			Store:       preset.String(),
			Compression: opts.Compression.String(),
			Num:         *num,
			ValueSize:   *valueSize,
			Threads:     *threads,
			Concurrency: *concurrency,
			StoreScale:  *storeScale,
			Seed:        *seed,
			GoVersion:   runtime.Version(),
			Timestamp:   time.Now().UTC().Format(time.RFC3339),
			Workloads:   results,

			Metrics:               m,
			WriteAmplification:    m.WriteAmplification(),
			BatchesPerGroup:       m.CommitGroupSize(),
			SyncsPerCommit:        m.SyncsPerCommit(),
			CompressionRatio:      m.Tree.Compression.Ratio(),
			PeakLevelParallelism:  m.Tree.MaxLevelParallelism(),
			TablesProbedPerGet:    m.TablesProbedPerGet(),
			GetBlockCacheHitRatio: m.GetBlockCacheHitRatio(),
			IterTableSkipRatio:    m.IterTableSkipRatio(),
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

package main

import (
	"pebblesdb"
	"pebblesdb/internal/vfs"
)

// The pinned set-up. These are constants of the benchmark, not flags: two
// runs of the same commit differ only in -seed and -seconds.
//
// ISSUE 11 pins 1 000 000 keys (144 MB live, 9x a 16 MiB block cache). The
// builder's time cap (3420 s for 4 + 22 driver runs per gated workload and
// two builds, under 30 s a run) allows half of that: a loaded store of 1 M
// keys takes 17 s to build, of 500 k keys 7.5 s. Keys,
// block cache, warm-up and crash-check puts are the issue's halved, so the
// data:cache ratio stays 9x. fill keeps the issue's 2 M ops (every key once,
// then 1.5 M overwrites): 500 k + 500 k leaves the second half's write
// amplification at 1.11 of the whole run's, 500 k + 1.5 M at 1.03, and the
// check wants it within 1.1 (README, "Traffic checks"). The store options
// are the issue's.
const (
	keyLen    = 16 // decimal key index, zero padded
	valueLen  = 128
	headerLen = 8 // big-endian (key index XOR seed)
	entryLen  = keyLen + valueLen

	numClients = 2 // closed loop; the box has 2 cores

	memtableSize   = 512 << 10
	levelBaseBytes = 1280 << 10
	targetFileSize = 256 << 10
	topLevelBits   = 19

	zipfTheta = 0.99

	// runSeconds is the -seconds default and the value BENCHMARK.json pins.
	runSeconds = 8
)

// What each workload exists to exercise, checked by every traced run at the
// pinned scale; a run that misses a limit fails. ISSUE 11 asked for a zipf
// hit ratio of 0.8, a decode share under 0.2 and a write_amp gap within 0.1.
// Its own full-size set-up (1 M keys, 16 MiB) measures 0.75 and 0.29, and no
// cache that keeps uniform gets under 0.2 reaches either (README, "Traffic
// checks"); the gap is 1.00 to 1.10 between identical fills, 0.05 on
// average. A limit that can fail a run has to clear that, so each is the
// issue's intent at the distance this set-up can keep: the hit ratio and the
// decode share a tenth beyond what is measured, the gap 4 deviations out.
const (
	minZipfHitRatio    = 0.65 // block cache, Get path, read-zipf (measured 0.72-0.74)
	maxUniformHitRatio = 0.2  // the same on read-uniform (measured 0.07)
	maxZipfDecodeShare = 0.4  // blocks decoded per op, read-zipf / read-uniform (measured 0.30)
	maxHalfWriteAmpGap = 0.15 // fill: |second-half write_amp / whole run's - 1| (32 fills: mean 0.050, deviation 0.022)
)

// config is the pinned set-up at one scale. pinned() is the scale of
// record; the smoke test divides every count of it.
type config struct {
	keys           int   // distinct keys
	fillOverwrites int   // uniform overwrites fill issues after writing every key once
	loadOverwrites int   // how many of them the loaded store replays
	cacheBytes     int64 // block cache
	warmupOps      int   // untimed ops before the timed phase of read/mixed; a scan warm-up is one scan round
	crashOps       int   // synced puts in the crash check (fill only)

	// Ops per timed round, by workload kind. fill* cut their op stream
	// into rounds and run it once; the others repeat rounds until -seconds
	// have been measured.
	fillRound       int
	getUniformRound int
	getZipfRound    int
	scanRound       int
	mixedRound      int

	scanNexts int // Next calls per scan op
}

func pinned() config {
	return config{
		keys:            500_000,
		fillOverwrites:  1_500_000,
		loadOverwrites:  500_000,
		cacheBytes:      8 << 20,
		warmupOps:       100_000,
		crashOps:        25_000,
		fillRound:       250_000,
		getUniformRound: 100_000,
		getZipfRound:    200_000,
		scanRound:       15_000,
		mixedRound:      75_000,
		scanNexts:       20,
	}
}

// liveBytes is the user data live after fill: every key once.
func (c config) liveBytes() int64 { return int64(c.keys) * entryLen }

// options is the store configuration of record: the preset's values except
// for the fields ISSUE 11 pins. No per-commit fsync anywhere in the timed
// phases (nil WriteOptions): that is the stated flush policy.
func (c config) options(leveled bool, fs vfs.FS) *pebblesdb.Options {
	preset := pebblesdb.PresetPebblesDB
	if leveled {
		preset = pebblesdb.PresetHyperLevelDB
	}
	o := preset.Options()
	o.MemtableSize = memtableSize
	o.LevelBaseBytes = levelBaseBytes
	o.TargetFileSize = targetFileSize
	o.TopLevelBits = topLevelBits
	o.BlockCacheSize = c.cacheBytes
	o.Compression = pebblesdb.CompressionSnappy
	return o.WithFS(fs)
}

// opKind is what one client op of a workload does.
type opKind int

const (
	kindFill opKind = iota
	kindGetUniform
	kindGetZipf
	kindScan
	kindMixed
)

// workload is one of the six pinned inputs. The why strings are copied
// into BENCHMARK.json and the README.
type workload struct {
	name    string
	kind    opKind
	leveled bool // PresetHyperLevelDB instead of PresetPebblesDB
	// gated says whether BENCHMARK.json lists the workload, which makes the
	// driver hold every end-to-end metric on it to its bound. fill-leveled
	// is not: between identical runs its ops_per_s spreads 13-24% and its
	// counts 5-12% (README, "Spread"), the driver gates a workload on every
	// metric or on none, and no bound may exceed 0.25. It runs with the
	// other five, prints the same metrics and is the yardstick's numerator.
	gated bool
	why   string
}

// loaded reports whether the timed phase runs on the loaded store.
func (w workload) loaded() bool { return w.kind != kindFill }

var workloads = []workload{
	{"fill", kindFill, false, true, "write path and FLSM compaction do nearly all the work; read layers idle"},
	{"fill-leveled", kindFill, true, false, "the paper's leveled baseline on the same op stream; guards treebase/engine/sstable changes"},
	{"read-uniform", kindGetUniform, false, true, "working set 9x the block cache: the miss path (table cache, block read, crc, decode) dominates"},
	{"read-zipf", kindGetZipf, false, true, "hot set fits the cache: pin, memtable probe, guard lookup, bloom and cache lookup dominate; decode mostly bypassed"},
	{"scan", kindScan, false, true, "seek + 20 next on the uncompacted store: FLSM's acknowledged cost, the iterator stack dominates"},
	{"mixed", kindMixed, false, true, "zipf gets beside uniform overwrites: a write gain bought with read cost shows here and nowhere else"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

package pebblesdb

import (
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/engine"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/vfs"
)

// Compression selects the sstable data-block codec.
type Compression int

const (
	// CompressionDefault uses the store default, Snappy: per-block
	// compression is a default-on throughput optimization in every
	// production LSM (LevelDB, RocksDB, Pebble) — it cuts write IO during
	// flush/compaction and read IO on cold lookups.
	CompressionDefault Compression = iota
	// CompressionNone stores blocks raw.
	CompressionNone
	// CompressionSnappy compresses data blocks with the pure-Go Snappy
	// codec when a block shrinks by at least 12.5%.
	CompressionSnappy
)

// String returns the display name of the codec the value selects. It
// follows kind(), so reporting always matches behavior — including for
// out-of-range values, which behave as the default.
func (c Compression) String() string { return c.kind().String() }

// Engine selects the on-storage data structure.
type Engine int

const (
	// EngineFLSM is the fragmented log-structured merge tree (PebblesDB).
	EngineFLSM Engine = iota
	// EngineLeveled is the classic leveled LSM (LevelDB lineage).
	EngineLeveled
)

// Preset names the store configurations used throughout the paper's
// evaluation (§5.1). A preset expands to a full Options value that can be
// further customized.
type Preset int

const (
	// PresetPebblesDB: FLSM, 4 MB memtables, level0 slowdown/stop 8/12,
	// sstable bloom filters, parallel seeks, seek-based and size-ratio
	// compaction (the paper's default PebblesDB configuration).
	PresetPebblesDB Preset = iota
	// PresetHyperLevelDB: leveled tree, 4 MB memtables, 8/12 triggers,
	// multi-threaded compaction, with sstable bloom filters added (§5.1:
	// "all numbers presented for HyperLevelDB are with bloom filters").
	PresetHyperLevelDB
	// PresetLevelDB: leveled tree, 4 MB memtables, 8/12 triggers, a single
	// compaction thread, 2 MB target files.
	PresetLevelDB
	// PresetRocksDB: leveled tree, 64 MB memtables, slowdown/stop 20/24,
	// multi-threaded compaction, 64 MB target files.
	PresetRocksDB
	// PresetPebblesDB1 is PebblesDB with max_sstables_per_guard = 1, which
	// makes FLSM behave like an LSM (§3.5; "PebblesDB-1" in Fig 5.1d).
	PresetPebblesDB1
)

// String returns the preset's display name as used in the paper's figures.
func (p Preset) String() string {
	switch p {
	case PresetPebblesDB:
		return "PebblesDB"
	case PresetHyperLevelDB:
		return "HyperLevelDB"
	case PresetLevelDB:
		return "LevelDB"
	case PresetRocksDB:
		return "RocksDB"
	case PresetPebblesDB1:
		return "PebblesDB-1"
	}
	return "Unknown"
}

// Options configures a store. The zero value is not valid; start from a
// Preset's Options and adjust.
type Options struct {
	// Engine selects FLSM or leveled storage.
	Engine Engine

	// InMemory, if true, backs the store with a process-local in-memory
	// filesystem (deterministic benchmarking, tests). The directory name
	// becomes a namespace within that filesystem.
	InMemory bool

	// MemtableSize is the flush threshold in bytes.
	MemtableSize int
	// L0CompactionTrigger / L0SlowdownTrigger / L0StopTrigger control
	// level-0 behaviour (§5.1).
	L0CompactionTrigger int
	L0SlowdownTrigger   int
	L0StopTrigger       int
	// NumLevels is the level count including L0.
	NumLevels int
	// LevelBaseBytes / LevelMultiplier size the level capacities.
	LevelBaseBytes  int64
	LevelMultiplier int
	// TargetFileSize bounds leveled-compaction outputs.
	TargetFileSize int64
	// BlockSize is the sstable block size (uncompressed).
	BlockSize int
	// Compression selects the sstable data-block codec; the zero value
	// (CompressionDefault) is Snappy.
	Compression Compression
	// BloomBitsPerKey sizes sstable bloom filters; negative disables them.
	BloomBitsPerKey int
	// PrefixBloomLength, when positive (1..255), adds a second bloom filter
	// to every new sstable over the distinct first-PrefixBloomLength-byte
	// prefixes of its user keys. Iterators opened with IterOptions.Prefix
	// of exactly this length skip sstables whose filter rules the prefix
	// out before any data-block IO — cheap pruning inside FLSM guards,
	// whose sstables overlap by design. 0 disables; existing tables (and
	// those written while disabled) stay readable either way.
	PrefixBloomLength int
	// BlockCacheSize / TableCacheSize bound cache memory (Fig 5.2b).
	BlockCacheSize int64
	TableCacheSize int

	// TopLevelBits / BitDecrement control guard probability (§4.4).
	TopLevelBits int
	BitDecrement int
	// MaxSSTablesPerGuard caps sstables per guard (§3.5); 1 = LSM-like.
	MaxSSTablesPerGuard int
	// SeekCompactionThreshold triggers guard/file compaction after this
	// many seeks (§4.2); negative disables.
	SeekCompactionThreshold int
	// SizeRatioPct triggers aggressive level compaction (§4.2); negative
	// disables.
	SizeRatioPct int
	// ParallelSeeks enables concurrent last-level sstable positioning
	// (§4.2).
	ParallelSeeks bool
	// MaxCompactionConcurrency is the background compaction thread count.
	MaxCompactionConcurrency int
	// CompactionUnitGuards is the minimum number of guard groups one FLSM
	// compaction unit claims when draining an over-threshold level; the
	// level's groups split into about MaxCompactionConcurrency units, but
	// never smaller than this floor. 0 selects the default (4).
	CompactionUnitGuards int
	// WALSync makes every commit durable before it returns, as if each
	// carried WriteOptions{Sync: true}; concurrent commits still share
	// amortized fsyncs.
	WALSync bool
	// MaxBgRetries is how many times a failed background flush or
	// compaction is retried (with capped exponential backoff) before the
	// store degrades to read-only; corruption never retries. 0 selects the
	// default (3), negative disables retries.
	MaxBgRetries int
	// BgRetryDelay is the initial backoff between background retries,
	// doubling per attempt up to one second. 0 selects the default (50ms).
	BgRetryDelay time.Duration

	// EventListener, when non-nil, receives structured begin/end events for
	// background activity: flushes, compactions, WAL rotations, sync
	// stalls, manifest rotations, write stalls, background errors,
	// read-only degradation and Resume. Callbacks run synchronously on
	// engine goroutines — keep them fast and non-blocking. Independent of
	// the listener, the store always retains the most recent events in an
	// in-memory flight recorder (DB.RecentEvents).
	EventListener obs.Listener
	// SlowOpThreshold, when positive, logs a structured line (via
	// SlowOpLogger) for every commit slower than the threshold, broken
	// down by stage: write-stall time, WAL sync, memtable apply, and
	// residual queueing wait. 0 disables slow-op logging.
	SlowOpThreshold time.Duration
	// SlowOpLogger receives slow-op lines; nil falls back to the standard
	// library logger.
	SlowOpLogger obs.Logger

	// fs overrides the filesystem (tests).
	fs vfs.FS
}

// ReadOptions configures a single Get. A nil *ReadOptions uses the
// defaults: read the latest committed state.
type ReadOptions struct {
	// Snapshot pins the read to a point-in-time view; nil reads the latest
	// committed state.
	Snapshot *Snapshot
	// Buf, when non-nil, is the destination for the value: Get appends the
	// value to Buf[:0] and returns the result. Reusing a buffer with
	// sufficient capacity across Gets makes point reads allocation-free.
	// DB.GetTo is the same mechanism as an explicit argument.
	Buf []byte
}

// WriteOptions configures a single commit. A nil *WriteOptions uses the
// defaults: the commit is written to the WAL but not fsynced (it survives
// process crashes, not machine crashes), unless Options.WALSync forces
// syncs globally.
type WriteOptions struct {
	// Sync fsyncs the WAL before the commit returns, making it durable
	// against machine crashes (per-commit durability; the paper's
	// benchmarks distinguish sync and no-sync writes, §5.1). Concurrent
	// sync commits share fsyncs through the group-commit pipeline — the
	// guarantee is per-commit, the cost is amortized across however many
	// commits reached the log before the fsync (see Metrics.SyncsPerCommit).
	Sync bool
}

// Sync and NoSync are the common WriteOptions, for call-site readability:
//
//	db.Apply(b, pebblesdb.Sync)
var (
	Sync   = &WriteOptions{Sync: true}
	NoSync = &WriteOptions{Sync: false}
)

// IterOptions configures an iterator. A nil *IterOptions uses the
// defaults: unbounded, latest committed state.
type IterOptions struct {
	// LowerBound restricts the iterator to keys >= LowerBound (inclusive);
	// nil = unbounded. The bound is enforced on every positioning call and
	// lets the iterator prune guards and sstables before any IO.
	LowerBound []byte
	// UpperBound restricts the iterator to keys < UpperBound (exclusive);
	// nil = unbounded.
	UpperBound []byte
	// Prefix restricts the iterator to keys starting with these bytes,
	// equivalent to bounds [Prefix, successor(Prefix)) intersected with
	// LowerBound/UpperBound. When its length equals the store's
	// PrefixBloomLength, sstables whose prefix bloom filter rules the
	// prefix out are skipped without any block IO.
	Prefix []byte
	// Snapshot pins the iterator to a point-in-time view; nil observes the
	// latest committed state as of iterator creation.
	Snapshot *Snapshot
}

// kind maps the public Compression to the internal codec selector.
// Values outside the defined constants behave as CompressionDefault.
func (c Compression) kind() compress.Kind {
	if c == CompressionNone {
		return compress.None
	}
	return compress.Snappy
}

// sharedMemFS backs every InMemory store in the process, namespaced by
// directory, so reopening an in-memory store by path works.
var sharedMemFS = vfs.NewMem()

// Options expands the preset into a concrete Options value.
func (p Preset) Options() *Options {
	o := &Options{
		MemtableSize:             4 << 20,
		L0CompactionTrigger:      4,
		L0SlowdownTrigger:        8,
		L0StopTrigger:            12,
		NumLevels:                7,
		LevelBaseBytes:           10 << 20,
		LevelMultiplier:          10,
		TargetFileSize:           2 << 20,
		BloomBitsPerKey:          10,
		MaxCompactionConcurrency: 3,
	}
	switch p {
	case PresetPebblesDB, PresetPebblesDB1:
		o.Engine = EngineFLSM
		o.MaxSSTablesPerGuard = 4
		o.TopLevelBits = 22
		o.BitDecrement = 2
		o.SeekCompactionThreshold = 10
		o.SizeRatioPct = 25
		o.ParallelSeeks = true
		if p == PresetPebblesDB1 {
			o.MaxSSTablesPerGuard = 1
		}
	case PresetHyperLevelDB:
		o.Engine = EngineLeveled
	case PresetLevelDB:
		o.Engine = EngineLeveled
		o.MaxCompactionConcurrency = 1
	case PresetRocksDB:
		o.Engine = EngineLeveled
		o.MemtableSize = 64 << 20
		o.L0SlowdownTrigger = 20
		o.L0StopTrigger = 24
		o.TargetFileSize = 64 << 20
	}
	return o
}

// Tuned rescales the options for a serving workload with targetMemoryBytes
// of memory to spend, off one knob. The presets keep the paper's
// evaluation parameters (4 MiB memtables, tiny caches), which sink real
// deployments the same way paper-scale Pebble defaults did: a 128 MB cache
// and 64 MB memtable behind a high-throughput service is an order of
// magnitude of avoidable IO. Tuned splits the budget roughly like the
// production fix that motivated it — half block cache, a quarter
// memtable (capped at 256 MB so flushes stay incremental), the rest left
// for table-cache metadata and per-connection state — and opens up the
// background machinery to match (compaction trigger 4, stop 20, four
// concurrent compactions, 1024 cached tables). Fractions of the budget
// below the preset's own values never shrink them. Returns o.
func (o *Options) Tuned(targetMemoryBytes int64) *Options {
	if targetMemoryBytes <= 0 {
		return o
	}
	mem := targetMemoryBytes / 4
	if mem > 256<<20 {
		mem = 256 << 20
	}
	if int(mem) > o.MemtableSize {
		o.MemtableSize = int(mem)
	}
	if cache := targetMemoryBytes / 2; cache > o.BlockCacheSize {
		o.BlockCacheSize = cache
	}
	if o.TableCacheSize < 1024 {
		o.TableCacheSize = 1024
	}
	// Larger memtables flush into larger L0 tables; scale output tables to
	// match so compaction doesn't shred them into paper-sized fragments.
	if target := mem; target > o.TargetFileSize {
		if target > 64<<20 {
			target = 64 << 20
		}
		o.TargetFileSize = target
	}
	o.L0CompactionTrigger = 4
	if o.L0SlowdownTrigger < 12 {
		o.L0SlowdownTrigger = 12
	}
	if o.L0StopTrigger < 20 {
		o.L0StopTrigger = 20
	}
	if o.MaxCompactionConcurrency < 4 {
		o.MaxCompactionConcurrency = 4
	}
	return o
}

// WithFS overrides the backing filesystem; intended for tests and the
// benchmark harness (e.g. crash-injecting filesystems).
func (o *Options) WithFS(fs vfs.FS) *Options {
	o.fs = fs
	return o
}

// toConfig translates public options into the internal configuration.
func (o *Options) toConfig() (*base.Config, engine.Kind, vfs.FS) {
	cfg := &base.Config{
		MemtableSize:             o.MemtableSize,
		L0CompactionTrigger:      o.L0CompactionTrigger,
		L0SlowdownTrigger:        o.L0SlowdownTrigger,
		L0StopTrigger:            o.L0StopTrigger,
		NumLevels:                o.NumLevels,
		LevelBaseBytes:           o.LevelBaseBytes,
		LevelMultiplier:          o.LevelMultiplier,
		TargetFileSize:           o.TargetFileSize,
		BlockSize:                o.BlockSize,
		Compression:              o.Compression.kind(),
		BloomBitsPerKey:          o.BloomBitsPerKey,
		PrefixBloomLength:        o.PrefixBloomLength,
		BlockCacheSize:           o.BlockCacheSize,
		TableCacheSize:           o.TableCacheSize,
		TopLevelBits:             o.TopLevelBits,
		BitDecrement:             o.BitDecrement,
		MaxSSTablesPerGuard:      o.MaxSSTablesPerGuard,
		SeekCompactionThreshold:  o.SeekCompactionThreshold,
		SizeRatioPct:             o.SizeRatioPct,
		ParallelSeeks:            o.ParallelSeeks,
		MaxCompactionConcurrency: o.MaxCompactionConcurrency,
		CompactionUnitGuards:     o.CompactionUnitGuards,
		WALSync:                  o.WALSync,
		BgErrorRetries:           o.MaxBgRetries,
		BgErrorRetryDelay:        o.BgRetryDelay,
		EventListener:            o.EventListener,
		SlowOpThreshold:          o.SlowOpThreshold,
		SlowOpLogger:             o.SlowOpLogger,
	}
	kind := engine.KindFLSM
	if o.Engine == EngineLeveled {
		kind = engine.KindLeveled
	}
	fs := o.fs
	if fs == nil {
		if o.InMemory {
			fs = sharedMemFS
		} else {
			fs = vfs.Default
		}
	}
	return cfg, kind, fs
}

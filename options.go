package pebblesdb

import (
	"pebblesdb/internal/base"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/engine"
	"pebblesdb/internal/vfs"
)

// Compression selects the sstable data-block codec.
type Compression = compress.Kind

const (
	// CompressionDefault uses the store default, Snappy.
	CompressionDefault = compress.Default
	// CompressionNone stores blocks raw.
	CompressionNone = compress.None
	// CompressionSnappy compresses data blocks with the pure-Go Snappy
	// codec when a block shrinks by at least 12.5%.
	CompressionSnappy = compress.Snappy
)

// Engine selects the on-storage data structure.
type Engine = engine.Kind

const (
	// EngineFLSM is the fragmented log-structured merge tree (PebblesDB).
	EngineFLSM = engine.KindFLSM
	// EngineLeveled is the classic leveled LSM (LevelDB lineage).
	EngineLeveled = engine.KindLeveled
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

// Options configures a store: the tunables of base.Config, which it embeds
// so that the engine reads the very struct the caller filled in, plus where
// the store lives. Start from a Preset's Options and adjust.
type Options struct {
	base.Config

	// Engine selects FLSM or leveled storage.
	Engine Engine

	// InMemory, if true, backs the store with a process-local in-memory
	// filesystem (deterministic benchmarking, tests). The directory name
	// becomes a namespace within that filesystem.
	InMemory bool

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
// process crashes, not machine crashes).
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

// sharedMemFS backs every InMemory store in the process, namespaced by
// directory, so reopening an in-memory store by path works.
var sharedMemFS = vfs.NewMem()

// Options expands the preset into a concrete Options value: the defaults
// of the paper's configuration (base.Config.EnsureDefaults) with the
// preset's differences on top.
func (p Preset) Options() *Options {
	o := &Options{}
	o.EnsureDefaults()
	switch p {
	case PresetPebblesDB, PresetPebblesDB1:
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
// for table metadata (resident for every live table, about a kilobyte
// each) and per-connection state — and opens up the background machinery
// to match (compaction trigger 4, stop 20, four concurrent compactions,
// 1024 open table file handles). Fractions of the budget below the preset's
// own values never shrink them. Returns o.
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

// filesystem resolves where the store lives.
func (o *Options) filesystem() vfs.FS {
	switch {
	case o.fs != nil:
		return o.fs
	case o.InMemory:
		return sharedMemFS
	}
	return vfs.Default
}

package base

import (
	"fmt"
	"time"

	"pebblesdb/internal/compress"
	"pebblesdb/internal/obs"
)

// Config carries every tunable shared by the engine and the two tree
// implementations. The public package translates user-facing Options and
// presets into a Config. Zero fields are filled in by EnsureDefaults.
type Config struct {
	// MemtableSize is the size in bytes at which a memtable is frozen and
	// scheduled for flush. HyperLevelDB's default is 4 MB; RocksDB's 64 MB.
	MemtableSize int

	// L0CompactionTrigger is the number of L0 files that triggers a
	// compaction into level 1.
	L0CompactionTrigger int
	// L0SlowdownTrigger is the L0 file count at which writes are delayed.
	L0SlowdownTrigger int
	// L0StopTrigger is the L0 file count at which writes block.
	L0StopTrigger int

	// NumLevels is the total number of levels including L0.
	NumLevels int
	// LevelBaseBytes is the target size of level 1.
	LevelBaseBytes int64
	// LevelMultiplier is the size ratio between successive levels.
	LevelMultiplier int

	// TargetFileSize bounds output sstables during leveled compaction.
	TargetFileSize int64

	// BlockSize is the uncompressed size target for sstable data blocks.
	BlockSize int
	// BlockRestartInterval is the number of keys between restart points.
	BlockRestartInterval int
	// BloomBitsPerKey sizes the per-sstable bloom filter; 0 selects the
	// default (10) and a negative value disables bloom filters entirely
	// (ablation: §5.2 reports reads improve 63% with them).
	BloomBitsPerKey int
	// PrefixBloomLength, when positive, adds a second bloom filter to every
	// sstable built over the distinct first-PrefixBloomLength-byte prefixes
	// of its user keys (sstable format v4). Prefix iterators whose prefix is
	// exactly this length skip tables whose filter rules the prefix out
	// before any data-block IO. 0 disables the filter (tables keep their
	// v2/v3 format).
	PrefixBloomLength int

	// Compression selects the sstable data-block codec (sstable format
	// v2). The zero value (compress.None) writes raw blocks; the public
	// Options layer defaults stores to Snappy. Blocks that compress by
	// less than 12.5% are stored raw regardless.
	Compression compress.Kind

	// BlockCacheSize is the capacity in bytes of the shared block cache.
	// The cache holds decompressed payloads, so capacity is charged in
	// post-inflation bytes.
	BlockCacheSize int64
	// TableCacheSize is the number of open sstables (and their index
	// blocks/bloom filters) kept cached. The paper notes the stores cache a
	// limited number of sstable index blocks (default 1000).
	TableCacheSize int

	// --- FLSM-specific (ignored by the leveled tree) ---

	// TopLevelBits is the number of consecutive least-significant set bits
	// a key's hash needs to become a guard at level 1 (§4.4).
	TopLevelBits int
	// BitDecrement relaxes the requirement per deeper level (§4.4).
	BitDecrement int
	// MaxSSTablesPerGuard caps sstables per guard; reaching the cap
	// triggers compaction of the guard (§3.5). 1 makes FLSM behave as LSM.
	MaxSSTablesPerGuard int
	// GuardHashSeed seeds guard selection hashing.
	GuardHashSeed uint64
	// SizeRatioPct triggers aggressive compaction of level i when its size
	// is within this percentage of level i+1 (§4.2, default 25). Negative
	// disables the rule (ablation).
	SizeRatioPct int
	// LastLevelRewriteFactor is the IO blow-up beyond which the
	// second-highest level rewrites in place instead of merging into the
	// full last-level guard (§3.4, default 25).
	LastLevelRewriteFactor int
	// ParallelSeeks enables concurrent sstable positioning in last-level
	// guards during seeks (§4.2).
	ParallelSeeks bool

	// SeekCompactionThreshold is the number of consecutive seeks that mark
	// a guard (FLSM) or file (leveled) for compaction (§4.2, default 10).
	// Negative disables seek-triggered compaction (ablation).
	SeekCompactionThreshold int

	// MaxCompactionConcurrency is the number of background compaction
	// goroutines. LevelDB uses 1; HyperLevelDB/RocksDB/PebblesDB use more.
	MaxCompactionConcurrency int

	// CompactionUnitGuards is the minimum number of guard groups one FLSM
	// compaction unit claims when draining an over-threshold level. Unit
	// size adapts upward: a level's populated groups split into about
	// MaxCompactionConcurrency units so every worker gets a share, but a
	// unit never shrinks below this floor — tiny units spend more time on
	// fixed per-compaction costs (iterator setup, table builds, manifest
	// edits) than on moving data. One whole-level pass is recovered by
	// setting it very large. Default 4.
	CompactionUnitGuards int

	// WALSync, if true, syncs the write-ahead log on every commit.
	WALSync bool

	// BgErrorRetries is how many times a failed background flush or
	// compaction is retried (with capped exponential backoff) before the
	// store degrades to read-only. Corruption is never retried. 0 selects
	// the default (3); a negative value disables retries.
	BgErrorRetries int
	// BgErrorRetryDelay is the initial backoff between background retries,
	// doubling per attempt up to one second. 0 selects the default (50ms).
	BgErrorRetryDelay time.Duration

	// Logger, if non-nil, receives diagnostic messages.
	Logger func(format string, args ...interface{})

	// EventListener, if non-nil, receives structured lifecycle events
	// (flush, compaction, WAL/manifest rotation, stalls, background
	// errors; see internal/obs). The engine tees it with its own flight
	// recorder at Open, so downstream code can assume it is non-nil
	// after that point. When nil before Open, only the flight recorder
	// observes events.
	EventListener obs.Listener

	// SlowOpThreshold, when positive, emits a structured line through
	// SlowOpLogger (falling back to Logger) for every commit whose total
	// latency meets it, with a stage breakdown (wait, WAL sync, apply,
	// stall). Zero disables the slow-op log.
	SlowOpThreshold time.Duration
	// SlowOpLogger, if non-nil, receives slow-op lines instead of Logger.
	SlowOpLogger obs.Logger
}

// EnsureDefaults fills zero-valued fields with the PebblesDB defaults used
// throughout the paper's evaluation (HyperLevelDB-derived).
func (c *Config) EnsureDefaults() {
	if c.MemtableSize == 0 {
		c.MemtableSize = 4 << 20
	}
	if c.L0CompactionTrigger == 0 {
		c.L0CompactionTrigger = 4
	}
	if c.L0SlowdownTrigger == 0 {
		c.L0SlowdownTrigger = 8
	}
	if c.L0StopTrigger == 0 {
		c.L0StopTrigger = 12
	}
	if c.NumLevels == 0 {
		c.NumLevels = 7
	}
	if c.LevelBaseBytes == 0 {
		c.LevelBaseBytes = 10 << 20
	}
	if c.LevelMultiplier == 0 {
		c.LevelMultiplier = 10
	}
	if c.TargetFileSize == 0 {
		c.TargetFileSize = 2 << 20
	}
	if c.BlockSize == 0 {
		c.BlockSize = 4 << 10
	}
	if c.BlockRestartInterval == 0 {
		c.BlockRestartInterval = 16
	}
	if c.BloomBitsPerKey == 0 {
		c.BloomBitsPerKey = 10
	}
	if c.BlockCacheSize == 0 {
		c.BlockCacheSize = 8 << 20
	}
	if c.TableCacheSize == 0 {
		c.TableCacheSize = 1000
	}
	if c.TopLevelBits == 0 {
		c.TopLevelBits = 22
	}
	if c.BitDecrement == 0 {
		c.BitDecrement = 2
	}
	if c.MaxSSTablesPerGuard == 0 {
		c.MaxSSTablesPerGuard = 4
	}
	if c.GuardHashSeed == 0 {
		c.GuardHashSeed = 0x9747b28c
	}
	if c.SizeRatioPct == 0 {
		c.SizeRatioPct = 25
	}
	if c.LastLevelRewriteFactor == 0 {
		c.LastLevelRewriteFactor = 25
	}
	if c.SeekCompactionThreshold == 0 {
		c.SeekCompactionThreshold = 10
	}
	if c.MaxCompactionConcurrency == 0 {
		c.MaxCompactionConcurrency = 3
	}
	if c.CompactionUnitGuards == 0 {
		c.CompactionUnitGuards = 4
	}
	if c.BgErrorRetries == 0 {
		c.BgErrorRetries = 3
	}
	if c.BgErrorRetryDelay == 0 {
		c.BgErrorRetryDelay = 50 * time.Millisecond
	}
}

// Validate rejects configurations the trees cannot honor.
func (c *Config) Validate() error {
	if c.NumLevels < 3 {
		return fmt.Errorf("base: NumLevels must be >= 3, got %d", c.NumLevels)
	}
	if c.L0SlowdownTrigger < c.L0CompactionTrigger {
		return fmt.Errorf("base: L0SlowdownTrigger (%d) < L0CompactionTrigger (%d)",
			c.L0SlowdownTrigger, c.L0CompactionTrigger)
	}
	if c.L0StopTrigger < c.L0SlowdownTrigger {
		return fmt.Errorf("base: L0StopTrigger (%d) < L0SlowdownTrigger (%d)",
			c.L0StopTrigger, c.L0SlowdownTrigger)
	}
	if c.MaxSSTablesPerGuard < 1 {
		return fmt.Errorf("base: MaxSSTablesPerGuard must be >= 1, got %d", c.MaxSSTablesPerGuard)
	}
	if c.CompactionUnitGuards < 1 {
		return fmt.Errorf("base: CompactionUnitGuards must be >= 1, got %d", c.CompactionUnitGuards)
	}
	if c.BitDecrement < 1 {
		return fmt.Errorf("base: BitDecrement must be >= 1, got %d", c.BitDecrement)
	}
	if c.PrefixBloomLength < 0 || c.PrefixBloomLength > 255 {
		return fmt.Errorf("base: PrefixBloomLength must be in [0, 255], got %d", c.PrefixBloomLength)
	}
	return nil
}

// MaxBytesForLevel returns the soft size limit of the given level (level 0
// is bounded by file count, not bytes).
func (c *Config) MaxBytesForLevel(level int) int64 {
	b := c.LevelBaseBytes
	for l := 1; l < level; l++ {
		b *= int64(c.LevelMultiplier)
	}
	return b
}

// Logf logs through the configured logger, if any.
func (c *Config) Logf(format string, args ...interface{}) {
	if c.Logger != nil {
		c.Logger(format, args...)
	}
}

// SlowOpLogf routes a slow-op line through SlowOpLogger, falling back to
// the diagnostic Logger.
func (c *Config) SlowOpLogf(format string, args ...interface{}) {
	if c.SlowOpLogger != nil {
		c.SlowOpLogger(format, args...)
		return
	}
	if c.Logger != nil {
		c.Logger(format, args...)
	}
}

// Emit notifies the configured event listener, if any.
func (c *Config) Emit(e obs.Event) {
	if c.EventListener != nil {
		c.EventListener.Notify(e)
	}
}

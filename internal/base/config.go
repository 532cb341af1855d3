package base

import (
	"fmt"
	"log"
	"time"

	"pebblesdb/internal/compress"
	"pebblesdb/internal/obs"
)

// Config carries every tunable shared by the engine and the two tree
// layouts. It is also the body of the public pebblesdb.Options, which embeds
// it: a field is declared, documented and defaulted here and nowhere else.
// Zero fields are filled in by EnsureDefaults.
type Config struct {
	// MemtableSize is the size in bytes at which a memtable is frozen and
	// scheduled for flush. HyperLevelDB's default is 4 MB; RocksDB's 64 MB.
	MemtableSize int

	// L0CompactionTrigger is the number of L0 files that triggers a
	// compaction into level 1; L0SlowdownTrigger the count at which writes
	// are delayed and L0StopTrigger the count at which they block (§5.1).
	L0CompactionTrigger int
	L0SlowdownTrigger   int
	L0StopTrigger       int

	// NumLevels is the total number of levels including L0.
	NumLevels int
	// LevelBaseBytes is the target size of level 1; each deeper level's is
	// LevelMultiplier times its parent's.
	LevelBaseBytes int64

	// TargetFileSize bounds output sstables during leveled compaction.
	TargetFileSize int64

	// Compression selects the sstable data-block codec; the zero value
	// (compress.Default) is Snappy. Blocks that compress by less than 12.5%
	// are stored raw regardless.
	Compression compress.Kind
	// BloomBitsPerKey sizes the per-sstable bloom filter; 0 selects the
	// default (10) and a negative value disables bloom filters entirely
	// (ablation: §5.2 reports reads improve 63% with them).
	BloomBitsPerKey int
	// PrefixBloomLength, when positive (1..255), adds a second bloom filter
	// to every new sstable over the distinct first-PrefixBloomLength-byte
	// prefixes of its user keys. Iterators opened with IterOptions.Prefix
	// of exactly this length skip sstables whose filter rules the prefix
	// out before any data-block IO — cheap pruning inside FLSM guards,
	// whose sstables overlap by design. 0 disables; existing tables (and
	// those written while disabled) stay readable either way.
	PrefixBloomLength int

	// BlockCacheSize is the capacity in bytes of the shared block cache
	// (Fig 5.2b). The cache holds decompressed payloads, so capacity is
	// charged in post-inflation bytes.
	BlockCacheSize int64
	// TableCacheSize is the number of open sstable file handles the table
	// cache keeps, least recently read closed first (default 1000, the
	// paper's limit on cached tables). It is a bound on file descriptors
	// only: a table's index block and bloom filters — about a kilobyte —
	// stay resident from its first read until the table is deleted.
	TableCacheSize int

	// --- FLSM-specific (ignored by the leveled tree) ---

	// TopLevelBits is the number of consecutive least-significant set bits
	// a key's hash needs to become a guard at level 1, and BitDecrement
	// relaxes the requirement per deeper level (§4.4).
	TopLevelBits int
	BitDecrement int
	// MaxSSTablesPerGuard caps sstables per guard; reaching the cap
	// triggers compaction of the guard (§3.5). 1 makes FLSM behave as LSM.
	MaxSSTablesPerGuard int
	// SizeRatioPct triggers aggressive compaction of level i when its size
	// is within this percentage of level i+1 (§4.2, default 25). Negative
	// disables the rule (ablation).
	SizeRatioPct int
	// ParallelSeeks enables concurrent sstable positioning in last-level
	// guards during seeks (§4.2).
	ParallelSeeks bool

	// SeekCompactionThreshold is the number of consecutive seeks that mark
	// an FLSM guard for compaction (§4.2, default 10). A seek is a read
	// that consults two or more of the guard's tables: an iterator seek
	// that positions them, or a Get that passes over the newest one whose
	// key range holds its key (a bloom negative counts). A leveled tree
	// budgets a table's Get misses instead, as many as LevelDB's allowed
	// seeks, and the threshold only switches that on. Consecutive means
	// with no commit between two charges, in both trees: a charge that sees
	// the committed sequence number moved restarts the budget (LevelDB
	// never restarts allowed seeks). Negative disables every budget
	// (ablation).
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

	// MaxBgRetries is how many times a failed background flush or
	// compaction is retried (with capped exponential backoff) before the
	// store degrades to read-only. Corruption is never retried. 0 selects
	// the default (3); a negative value disables retries.
	MaxBgRetries int
	// BgRetryDelay is the initial backoff between background retries,
	// doubling per attempt up to one second. 0 selects the default (50ms).
	BgRetryDelay time.Duration

	// EventListener, when non-nil, receives structured begin/end events for
	// background activity: flushes, compactions, WAL rotations, sync
	// stalls, manifest rotations, write stalls, background errors,
	// read-only degradation and Resume (see internal/obs). Callbacks run
	// synchronously on engine goroutines — keep them fast and
	// non-blocking. Independent of the listener, the store always retains
	// the most recent events in an in-memory flight recorder
	// (DB.RecentEvents); the engine tees the two at Open.
	EventListener obs.Listener
	// SlowOpThreshold, when positive, logs a structured line through Logger
	// for every commit slower than the threshold, broken down by stage:
	// write-stall time, WAL sync, memtable apply, and residual queueing
	// wait. 0 disables slow-op logging.
	SlowOpThreshold time.Duration
	// Logger receives the store's diagnostics: the degraded-to-read-only
	// line with the flight-recorder dump that explains it, and slow-op
	// lines. It is called on engine goroutines (the degradation lines under
	// the engine's lock), so it must not block or call back into the store.
	// Nil selects the standard library's log.Printf.
	Logger obs.Logger
}

// EnsureDefaults fills zero-valued fields with the PebblesDB defaults used
// throughout the paper's evaluation (HyperLevelDB-derived, §5.1). This is
// the one place they are spelled: the public presets start from it and
// override.
func (c *Config) EnsureDefaults() {
	def(&c.MemtableSize, 4<<20)
	def(&c.L0CompactionTrigger, 4)
	def(&c.L0SlowdownTrigger, 8)
	def(&c.L0StopTrigger, 12)
	def(&c.NumLevels, 7)
	def(&c.LevelBaseBytes, 10<<20)
	def(&c.TargetFileSize, 2<<20)
	def(&c.BloomBitsPerKey, 10)
	def(&c.BlockCacheSize, 8<<20)
	def(&c.TableCacheSize, 1000)
	def(&c.TopLevelBits, 22)
	def(&c.BitDecrement, 2)
	def(&c.MaxSSTablesPerGuard, 4)
	def(&c.SizeRatioPct, 25)
	def(&c.SeekCompactionThreshold, 10)
	def(&c.MaxCompactionConcurrency, 3)
	def(&c.CompactionUnitGuards, 4)
	def(&c.MaxBgRetries, 3)
	def(&c.BgRetryDelay, 50*time.Millisecond)
	if c.Logger == nil {
		c.Logger = log.Printf
	}
}

// def sets *p to v if it still holds its zero value.
func def[T comparable](p *T, v T) {
	var zero T
	if *p == zero {
		*p = v
	}
}

// LevelMultiplier is the size ratio between successive levels: LevelDB's
// 10, which every preset shares.
const LevelMultiplier = 10

// MaxMemtableSize bounds MemtableSize: a memtable's arena addresses 4 GiB
// with its 32-bit links, which leaves room for what a full memtable of this
// size is charged and the one commit that overfills it.
const MaxMemtableSize = 1 << 30

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
	if c.MemtableSize > MaxMemtableSize {
		return fmt.Errorf("base: MemtableSize must be <= %d, got %d", MaxMemtableSize, c.MemtableSize)
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
		b *= LevelMultiplier
	}
	return b
}

// Emit notifies the configured event listener, if any.
func (c *Config) Emit(e obs.Event) {
	if c.EventListener != nil {
		c.EventListener.Notify(e)
	}
}

package engine

import (
	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/metric"
	"pebblesdb/internal/tablecache"
	"pebblesdb/internal/treebase"
)

// Metrics is a point-in-time summary of store activity, sized for the
// paper's reporting needs (write amplification, stall counts, sstable size
// distributions, memory consumption) plus the commit-pipeline health
// counters (group sizes, fsync amortization, commit waits). Every field is
// declared once, here or in a nested struct, by its internal/metric tags.
type Metrics struct {
	// Tree describes the on-storage structure, including the write-side
	// block-compression accounting (Tree.Compression: logical vs physical
	// data bytes, encoder time).
	Tree treebase.Metrics
	// Cache describes the table cache (Table 5.4 memory accounting) and
	// the read-side decompression counters.
	Cache tablecache.Metrics
	// BlockCache describes the block cache over every reader: Gets,
	// iterators and compaction inputs (Counters' GetBlockCache* count the
	// Gets' share alone).
	BlockCache cache.Stats
	// Counters are the engine's own event counts.
	Counters
	// MemtableBytes is the live memtable footprint.
	MemtableBytes int64 `metric:"pebblesdb_memtable_bytes" help:"Live memtable footprint."`
	// LastSeq is the last committed sequence number. Merging takes the max:
	// sequence numbers are per-shard streams, and summing them would
	// manufacture a sequence no shard ever committed.
	LastSeq base.SeqNum `metric:"-" merge:"max" help:"a position in one shard's stream, not a quantity: no rate or sum of it means anything"`
	// ReadOnly reports whether the store (any store, after a merge) is
	// currently degraded to read-only mode.
	ReadOnly bool `metric:"pebblesdb_read_only" help:"1 when the store is degraded to read-only by a background error."`
}

// Counters are the engine's lock-free event counts. The engine bumps its
// one live instance with atomic adds on the fields' own addresses and
// Metrics snapshots it with metric.Load, so the fields below are the only
// spelling of these counters. It holds nothing but 64-bit words and the
// engine allocates it on its own, which keeps every field 8-byte aligned on
// 32-bit targets.
type Counters struct {
	// SlowdownWrites / StoppedWrites / MemtableWaits count write stalls.
	SlowdownWrites int64 `metric:"pebblesdb_stall_slowdown_writes_total" help:"Writes delayed by the L0 slowdown trigger."`
	StoppedWrites  int64 `metric:"pebblesdb_stall_stopped_writes_total" help:"Writes blocked by the L0 stop trigger."`
	MemtableWaits  int64 `metric:"pebblesdb_stall_memtable_waits_total" help:"Writes that waited for a memtable flush."`
	// StallNanos is the wall time writers spent inside L0 slowdown delays
	// and level0-stop blocks — the latency cost the parallel compaction
	// scheduler exists to shrink.
	StallNanos int64 `metric:"pebblesdb_stall_nanos_total" help:"Wall time writers spent stalled."`
	// Flushes counts memtable flushes.
	Flushes int64 `metric:"pebblesdb_flushes_total" help:"Memtable flushes."`
	// WALBytes counts bytes appended to the write-ahead log.
	WALBytes int64 `metric:"pebblesdb_wal_bytes_total" help:"Bytes appended to the write-ahead log."`
	// WALSyncs counts physical WAL fsyncs. With group commit this is far
	// below SyncCommits under concurrency: one fsync covers every sync
	// commit whose record reached the log before it.
	WALSyncs int64 `metric:"pebblesdb_wal_syncs_total" help:"Physical WAL fsyncs."`
	// SyncCommits counts commits that requested durability (WriteOptions
	// Sync).
	SyncCommits int64 `metric:"pebblesdb_sync_commits_total" help:"Commits that requested durability."`
	// CommitGroups counts commit groups formed by leaders; CommitBatches
	// counts the batches scheduled across them, so CommitBatches /
	// CommitGroups is the mean group-commit size.
	CommitGroups  int64 `metric:"pebblesdb_commit_groups_total" help:"Commit groups formed by leaders."`
	CommitBatches int64 `metric:"pebblesdb_commit_batches_total" help:"Batches scheduled across commit groups."`
	// CommitWaitHist is the commit-latency histogram: bucket i counts
	// commits that completed within metric.Buckets[i]; the final slot
	// counts the overflow. CommitWaitNanos is the summed commit latency,
	// so CommitWaitNanos / sum(CommitWaitHist) is the mean and the
	// Prometheus exposition renders a complete histogram (_sum).
	CommitWaitHist  metric.Histogram `metric:"pebblesdb_commit_wait_seconds" help:"Commit latency."`
	CommitWaitNanos int64            `metric:"pebblesdb_commit_wait_seconds_sum"`
	// Gets / Writes / Iterators count operations.
	Gets      int64 `metric:"pebblesdb_gets_total" help:"Point reads."`
	Writes    int64 `metric:"pebblesdb_writes_total" help:"Write operations."`
	Iterators int64 `metric:"pebblesdb_iterators_total" help:"Iterators opened."`
	// Point-read path accounting (the paper's read-cost trade-off, §3.4),
	// folded in from per-Get scratches: GetTablesProbed counts sstables
	// whose blocks were searched on the Get path; GetBloomNegatives counts
	// tables the bloom filters excluded; GetBloomFalsePositives counts
	// probes a filter let through that found nothing;
	// GetBlockCacheHits/Misses are block-cache outcomes on Gets only
	// (iterators and compactions excluded).
	GetTablesProbed        int64 `metric:"pebblesdb_get_tables_probed_total" help:"Sstables searched on the Get path."`
	GetBloomNegatives      int64 `metric:"pebblesdb_get_bloom_negatives_total" help:"Tables excluded by bloom filters on Gets."`
	GetBloomFalsePositives int64 `metric:"pebblesdb_get_bloom_false_positives_total" help:"Bloom passes that found nothing."`
	GetBlockCacheHits      int64 `metric:"pebblesdb_get_block_cache_hits_total" help:"Block-cache hits on Gets."`
	GetBlockCacheMisses    int64 `metric:"pebblesdb_get_block_cache_misses_total" help:"Block-cache misses on Gets."`
	// Scan-path accounting: IterTablesOpened counts sstable iterators
	// opened by engine iterators (folded in at iterator Close);
	// IterPrefixSkips counts sstables a prefix iterator skipped because
	// their prefix bloom filter ruled the prefix out before any block IO;
	// IterSeekFanOuts counts seeks that positioned a guard's sstables on
	// goroutines of their own (§4.2), which they do only while table reads
	// are slow enough to be worth waiting for side by side.
	IterTablesOpened int64 `metric:"pebblesdb_iter_tables_opened_total" help:"Sstable iterators opened by scans."`
	IterPrefixSkips  int64 `metric:"pebblesdb_iter_prefix_skips_total" help:"Sstables skipped by prefix bloom filters."`
	IterSeekFanOuts  int64 `metric:"pebblesdb_iter_seek_fanouts_total" help:"Seeks that positioned a guard's sstables in parallel."`
	// Failure handling: BgRetryableErrors / BgPermanentErrors count
	// background-error degradations by class, BgRetries counts retried
	// background operations, Resumes counts successful Resume calls.
	BgRetryableErrors int64 `metric:"pebblesdb_bg_retryable_errors_total" help:"Retryable background-error degradations."`
	BgPermanentErrors int64 `metric:"pebblesdb_bg_permanent_errors_total" help:"Permanent background-error degradations."`
	BgRetries         int64 `metric:"pebblesdb_bg_retries_total" help:"Retried background operations."`
	Resumes           int64 `metric:"pebblesdb_resumes_total" help:"Successful Resume calls."`
}

// CommitGroupSize is the mean number of batches per commit group (1.0
// means no grouping occurred).
func (m Metrics) CommitGroupSize() float64 {
	if m.CommitGroups == 0 {
		return 0
	}
	return float64(m.CommitBatches) / float64(m.CommitGroups)
}

// SyncsPerCommit is physical fsyncs divided by durability-requesting
// commits; well below 1.0 under concurrent sync writers.
func (m Metrics) SyncsPerCommit() float64 {
	if m.SyncCommits == 0 {
		return 0
	}
	return float64(m.WALSyncs) / float64(m.SyncCommits)
}

// TablesProbedPerGet is the mean number of sstables actually searched per
// Get — the FLSM read-cost number the bloom filters are meant to keep near
// the leveled baseline's.
func (m Metrics) TablesProbedPerGet() float64 {
	if m.Gets == 0 {
		return 0
	}
	return float64(m.GetTablesProbed) / float64(m.Gets)
}

// GetBlockCacheHitRatio is the block-cache hit ratio on the point-read
// path only.
func (m Metrics) GetBlockCacheHitRatio() float64 {
	total := m.GetBlockCacheHits + m.GetBlockCacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.GetBlockCacheHits) / float64(total)
}

// IterTableSkipRatio is the fraction of prefix-filter-eligible sstables
// that prefix iterators skipped without IO: skips / (skips + opens). Zero
// when no prefix scans ran or no filter ever excluded a table.
func (m Metrics) IterTableSkipRatio() float64 {
	total := m.IterPrefixSkips + m.IterTablesOpened
	if total == 0 {
		return 0
	}
	return float64(m.IterPrefixSkips) / float64(total)
}

// Metrics returns a snapshot of store statistics. The live counters are
// loaded in one pass (metric.Load, each word read exactly once), the
// memtable footprint under e.mu, and the tree's structural metrics under
// the tree mutex — so a snapshot taken while a saturated compaction
// scheduler mutates every counter is internally consistent per group and
// safe to merge concurrently from many scrapers.
func (e *Engine) Metrics() Metrics {
	var m Metrics
	metric.Load(&m.Counters, e.stats)
	m.Tree = e.tree.Metrics()
	m.Cache = e.tree.CacheMetrics()
	m.BlockCache = e.tree.BlockCache().Stats()
	m.LastSeq = base.SeqNum(e.seq.Load())
	m.ReadOnly = e.readOnly.Load()
	e.mu.Lock()
	m.MemtableBytes = e.mem.ApproxSize()
	if e.imm != nil {
		m.MemtableBytes += e.imm.ApproxSize()
	}
	e.mu.Unlock()
	return m
}

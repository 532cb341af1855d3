package pebblesdb

import (
	"fmt"
	"strings"

	"pebblesdb/internal/engine"
	"pebblesdb/internal/metric"
	"pebblesdb/internal/vfs"
)

// Metrics is a point-in-time summary of store behaviour, including the IO
// accounting behind the paper's write-amplification results.
type Metrics struct {
	engine.Metrics

	// IO is the byte-level filesystem accounting since Open.
	IO vfs.IOStats
	// UserBytesWritten is the total key+value payload the application has
	// written; the denominator of write amplification.
	UserBytesWritten int64 `metric:"pebblesdb_user_written_bytes_total" help:"Application key+value payload written."`
}

// Merge accumulates o into m, yielding the combined metrics of both
// stores — how a sharded server (cmd/dbserver) reports M engines as one
// snapshot. Each field merges by the rule it is declared with
// (internal/metric): counters, gauges and per-level vectors add, the
// commit-wait histogram adds bucket-wise (summing percentiles would
// double-count the distribution's mass), high-water marks and LastSeq take
// the max, ReadOnly ORs and the table-size list concatenates. Ratio-style
// numbers (WriteAmplification and the engine.Metrics methods) derive from
// the summed counters afterwards, so each shard contributes in proportion
// to its traffic instead of each shard's ratio counting once.
func (m *Metrics) Merge(o Metrics) { metric.Merge(m, &o) }

// WriteAmplification is total write IO divided by user data written
// (Fig 1.1). Returns 0 before any writes.
func (m Metrics) WriteAmplification() float64 {
	if m.UserBytesWritten == 0 {
		return 0
	}
	return float64(m.IO.TotalWritten()) / float64(m.UserBytesWritten)
}

// String renders the metrics as a human-readable report: a per-level
// table (files, bytes, guards) followed by the compaction, stall, commit
// pipeline, compression, read/scan path and commit-latency summaries.
// The debug endpoint serves it at /debug/metrics?format=text.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %8s %12s %8s\n", "level", "tables", "bytes", "guards")
	var totFiles int64
	var totBytes int64
	for l := range m.Tree.LevelFiles {
		files := m.Tree.LevelFiles[l]
		var bytes int64
		if l < len(m.Tree.LevelBytes) {
			bytes = m.Tree.LevelBytes[l]
		}
		guards := "-"
		if l < len(m.Tree.GuardsPerLevel) && m.Tree.GuardsPerLevel[l] > 0 {
			guards = fmt.Sprintf("%d", m.Tree.GuardsPerLevel[l])
		}
		totFiles += int64(files)
		totBytes += bytes
		if files == 0 && guards == "-" {
			continue
		}
		fmt.Fprintf(&b, "%7s %8d %12s %8s\n", fmt.Sprintf("L%d", l), files, fmtBytes(bytes), guards)
	}
	fmt.Fprintf(&b, "%7s %8d %12s\n", "total", totFiles, fmtBytes(totBytes))
	fmt.Fprintf(&b, "flushes %d (%s), compactions %d (in-place %d, trivial %d, seek %d with %d pending, %d budgets restarted), in %s out %s\n",
		m.Flushes, fmtBytes(m.Tree.BytesFlushed),
		m.Tree.Compactions, m.Tree.InPlaceMerges, m.Tree.TrivialMoves, m.Tree.SeekCompactions, m.Tree.SeekPending, m.Tree.SeekRestarts,
		fmtBytes(m.Tree.BytesCompactedIn), fmtBytes(m.Tree.BytesCompactedOut))
	fmt.Fprintf(&b, "stalls: slowdown %d, stop %d, memtable waits %d, write-stall %.1f ms\n",
		m.SlowdownWrites, m.StoppedWrites, m.MemtableWaits, float64(m.StallNanos)/1e6)
	fmt.Fprintf(&b, "compaction scheduler: %d units, peak parallelism %d (intra-level %d), %d claim conflicts, claim stall %.1f ms\n",
		m.Tree.CompactionUnits, m.Tree.PeakUnitsInflight, m.Tree.MaxLevelParallelism(),
		m.Tree.ClaimConflicts, float64(m.Tree.ClaimStallNanos)/1e6)
	fmt.Fprintf(&b, "commit pipeline: %d groups, %.2f batches/group, %d fsyncs / %d sync commits (%.3f syncs/commit)\n",
		m.CommitGroups, m.CommitGroupSize(), m.WALSyncs, m.SyncCommits, m.SyncsPerCommit())
	cs := m.Tree.Compression
	fmt.Fprintf(&b, "compression: logical %s -> physical %s (ratio %.3f), %d/%d blocks compressed, encode %.1f ms\n",
		fmtBytes(cs.LogicalDataBytes), fmtBytes(cs.PhysicalDataBytes),
		cs.Ratio(), cs.CompressedBlocks, cs.DataBlocks, float64(cs.CompressNanos)/1e6)
	fmt.Fprintf(&b, "decompression: %d blocks, %s inflated, %.1f ms\n",
		m.Cache.BlocksDecompressed, fmtBytes(m.Cache.BytesDecompressed), float64(m.Cache.DecompressNanos)/1e6)
	fmt.Fprintf(&b, "read path: %d gets, %.2f tables probed/get, bloom %d negative / %d false positive, block cache %d/%d hits (%.1f%%)\n",
		m.Gets, m.TablesProbedPerGet(), m.GetBloomNegatives, m.GetBloomFalsePositives,
		m.GetBlockCacheHits, m.GetBlockCacheHits+m.GetBlockCacheMisses, 100*m.GetBlockCacheHitRatio())
	fmt.Fprintf(&b, "scan path: %d table iterators opened, %d prefix-filter skips (skip ratio %.3f)\n",
		m.IterTablesOpened, m.IterPrefixSkips, m.IterTableSkipRatio())
	bc := m.BlockCache
	fmt.Fprintf(&b, "block cache, every reader: %d/%d hits (%.1f%%), %d blocks in %s, %d evicted unread, %d readmitted by the ghost\n",
		bc.Hits, bc.Hits+bc.Misses, 100*bc.HitRatio(),
		bc.Entries, fmtBytes(bc.UsedBytes), bc.EvictedUnread, bc.Readmitted)
	b.WriteString("commit waits:")
	var commits int64
	for i, c := range m.CommitWaitHist {
		commits += c
		if c == 0 {
			continue
		}
		if i < len(metric.Buckets) {
			fmt.Fprintf(&b, "  <=%v %d", metric.Buckets[i], c)
		} else {
			fmt.Fprintf(&b, "  >%v %d", metric.Buckets[len(metric.Buckets)-1], c)
		}
	}
	if commits > 0 {
		fmt.Fprintf(&b, "  (mean %.1fus)", float64(m.CommitWaitNanos)/float64(commits)/1e3)
	}
	b.WriteString("\n")
	if m.BgRetryableErrors+m.BgPermanentErrors+m.BgRetries+m.Resumes > 0 || m.ReadOnly {
		fmt.Fprintf(&b, "background errors: %d retryable, %d permanent, %d retries, %d resumes, read-only %t\n",
			m.BgRetryableErrors, m.BgPermanentErrors, m.BgRetries, m.Resumes, m.ReadOnly)
	}
	fmt.Fprintf(&b, "io: read %s, written %s, write amplification %.2f\n",
		fmtBytes(m.IO.TotalRead()), fmtBytes(m.IO.TotalWritten()), m.WriteAmplification())
	return b.String()
}

// fmtBytes renders n in the most natural binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 10<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 10<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 10<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// Metrics returns current statistics.
func (d *DB) Metrics() Metrics {
	return Metrics{
		Metrics:          d.eng.Metrics(),
		IO:               d.fs.Stats(),
		UserBytesWritten: d.userBytes.Load(),
	}
}

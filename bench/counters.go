package main

// Coupling to the program, part 1 of 2: every field of DB.Metrics() the
// benchmark reads is read in this file and nowhere else. These names are a
// compatibility surface — a change that renames or redefines one of them
// changes the instrument, and must say so. The fields:
//
//	Metrics.UserBytesWritten
//	Metrics.IO.BytesWritten[vfs.CatTable|CatLog|CatManifest], .BytesRead[vfs.CatTable],
//	  .TotalWritten(), .TotalRead()
//	engine: Gets, Writes, Iterators, Flushes, WALSyncs, CommitGroups,
//	  CommitBatches, CommitWaitNanos, CommitWaitHist, StallNanos, SlowdownWrites,
//	  StoppedWrites, MemtableWaits, GetTablesProbed, GetBloomNegatives,
//	  GetBloomFalsePositives, GetBlockCacheHits, GetBlockCacheMisses, IterTablesOpened
//	Tree (treebase): Compactions, InPlaceMerges, TrivialMoves, SeekCompactions,
//	  BytesFlushed, BytesCompactedIn, BytesCompactedOut, PeakUnitsInflight,
//	  ClaimConflicts, ClaimStallNanos, LevelFiles, LevelBytes, GuardsPerLevel,
//	  EmptyGuards, Compression.{LogicalDataBytes,PhysicalDataBytes,CompressNanos}
//	Cache (tablecache): Hits, Misses, OpenTables, FilterBytes, IndexBytes,
//	  BlocksDecompressed, DecompressNanos

import (
	"reflect"

	"pebblesdb"
	"pebblesdb/internal/vfs"
)

// cumulative holds the counters that only grow from Open on; a round's
// share is the difference of two snapshots. Every field is a float64 so
// that sub can walk them by reflection and cannot miss one.
type cumulative struct {
	UserBytes, IOWritten, IORead                   float64
	TableWritten, TableRead, LogWritten, ManifestW float64
	Gets, Writes, Iterators, Flushes               float64
	WALSyncs, CommitGroups, CommitBatches          float64
	CommitWaitNs, Commits                          float64
	StallNs, Slowdowns, Stops, MemWaits            float64
	TablesProbed, BloomNeg, BloomFP                float64
	CacheHits, CacheMisses, IterTables             float64
	Compactions, Inplace, Trivial, SeekCompactions float64
	Flushed, CompactedIn, CompactedOut             float64
	ClaimConflicts, ClaimStallNs                   float64
	LogicalBytes, PhysicalBytes, EncodeNs          float64
	TCHits, TCMisses, BlocksDecoded, DecodeNs      float64
}

// gauges describe the store at the instant of the snapshot.
type gauges struct {
	PeakUnits                           float64
	LiveTables, LiveBytes, LevelsUsed   float64
	Guards, EmptyGuards, GuardedTables  float64
	OpenTables, FilterBytes, IndexBytes float64
}

// counters is DB.Metrics() flattened to the numbers the benchmark uses.
type counters struct {
	cumulative
	gauges
}

func readCounters(m pebblesdb.Metrics) counters {
	c := counters{
		cumulative: cumulative{
			UserBytes:    float64(m.UserBytesWritten),
			IOWritten:    float64(m.IO.TotalWritten()),
			IORead:       float64(m.IO.TotalRead()),
			TableWritten: float64(m.IO.BytesWritten[vfs.CatTable]),
			TableRead:    float64(m.IO.BytesRead[vfs.CatTable]),
			LogWritten:   float64(m.IO.BytesWritten[vfs.CatLog]),
			ManifestW:    float64(m.IO.BytesWritten[vfs.CatManifest]),

			Gets: float64(m.Gets), Writes: float64(m.Writes), Iterators: float64(m.Iterators),
			Flushes: float64(m.Flushes), WALSyncs: float64(m.WALSyncs),
			CommitGroups: float64(m.CommitGroups), CommitBatches: float64(m.CommitBatches),
			CommitWaitNs: float64(m.CommitWaitNanos),
			StallNs:      float64(m.StallNanos), Slowdowns: float64(m.SlowdownWrites),
			Stops: float64(m.StoppedWrites), MemWaits: float64(m.MemtableWaits),
			TablesProbed: float64(m.GetTablesProbed), BloomNeg: float64(m.GetBloomNegatives),
			BloomFP:   float64(m.GetBloomFalsePositives),
			CacheHits: float64(m.GetBlockCacheHits), CacheMisses: float64(m.GetBlockCacheMisses),
			IterTables: float64(m.IterTablesOpened),

			Compactions: float64(m.Tree.Compactions), Inplace: float64(m.Tree.InPlaceMerges),
			Trivial: float64(m.Tree.TrivialMoves), SeekCompactions: float64(m.Tree.SeekCompactions),
			Flushed: float64(m.Tree.BytesFlushed), CompactedIn: float64(m.Tree.BytesCompactedIn),
			CompactedOut:   float64(m.Tree.BytesCompactedOut),
			ClaimConflicts: float64(m.Tree.ClaimConflicts), ClaimStallNs: float64(m.Tree.ClaimStallNanos),
			LogicalBytes:  float64(m.Tree.Compression.LogicalDataBytes),
			PhysicalBytes: float64(m.Tree.Compression.PhysicalDataBytes),
			EncodeNs:      float64(m.Tree.Compression.CompressNanos),

			TCHits: float64(m.Cache.Hits), TCMisses: float64(m.Cache.Misses),
			BlocksDecoded: float64(m.Cache.BlocksDecompressed), DecodeNs: float64(m.Cache.DecompressNanos),
		},
		gauges: gauges{
			PeakUnits:   float64(m.Tree.PeakUnitsInflight),
			EmptyGuards: float64(m.Tree.EmptyGuards),
			OpenTables:  float64(m.Cache.OpenTables), FilterBytes: float64(m.Cache.FilterBytes),
			IndexBytes: float64(m.Cache.IndexBytes),
		},
	}
	for _, n := range m.CommitWaitHist {
		c.Commits += float64(n)
	}
	for l, n := range m.Tree.LevelFiles {
		c.LiveTables += float64(n)
		if n > 0 {
			c.LevelsUsed++
		}
		if l > 0 {
			c.GuardedTables += float64(n)
		}
	}
	for _, b := range m.Tree.LevelBytes {
		c.LiveBytes += float64(b)
	}
	for _, g := range m.Tree.GuardsPerLevel {
		c.Guards += float64(g)
	}
	return c
}

// sub returns the change from o to c: cumulative fields differenced,
// gauges from c.
func (c counters) sub(o counters) counters {
	c.cumulative = combine(c.cumulative, o.cumulative, -1)
	return c
}

// combine returns a + sign*b, field by field.
func combine(a, b cumulative, sign float64) cumulative {
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetFloat(av.Field(i).Float() + sign*bv.Field(i).Float())
	}
	return a
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work in the round).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeAmp is bytes the store wrote per user byte, both since Open.
func (c counters) writeAmp() float64 { return ratio(c.IOWritten, c.UserBytes) }

// counterMetrics turns one round into the per-layer counter metrics ("C"
// in the README table). d is the change over the round's timed phase, end
// the state after it, ops the client ops of the round. Per-user-byte ratios
// are taken over everything since the store was opened for the timed phase,
// so they read 0 on a workload that puts nothing.
func counterMetrics(d, end counters, ops float64) map[string]float64 {
	const mb = 1 << 20
	return map[string]float64{
		"wal.bytes_per_user_byte": ratio(end.LogWritten, end.UserBytes),
		"wal.syncs":               d.WALSyncs,

		"engine.commit_groups":       d.CommitGroups,
		"engine.batches_per_group":   ratio(d.CommitBatches, d.CommitGroups),
		"engine.commit_wait_mean_us": ratio(d.CommitWaitNs, d.Commits) / 1e3,
		"engine.stall_ms":            d.StallNs / 1e6,
		"engine.slowdown_writes":     d.Slowdowns,
		"engine.stopped_writes":      d.Stops,
		"engine.memtable_waits":      d.MemWaits,
		"engine.flushes":             d.Flushes,

		"treebase.compactions":                       d.Compactions,
		"treebase.inplace_merges":                    d.Inplace,
		"treebase.trivial_moves":                     d.Trivial,
		"treebase.bytes_flushed_per_user_byte":       ratio(end.Flushed, end.UserBytes),
		"treebase.bytes_compacted_in_per_user_byte":  ratio(end.CompactedIn, end.UserBytes),
		"treebase.bytes_compacted_out_per_user_byte": ratio(end.CompactedOut, end.UserBytes),
		"treebase.seek_compactions":                  d.SeekCompactions,
		"treebase.peak_units_inflight":               end.PeakUnits,
		"treebase.claim_conflicts":                   d.ClaimConflicts,
		"treebase.claim_stall_ms":                    d.ClaimStallNs / 1e6,
		"treebase.live_tables":                       end.LiveTables,
		"treebase.live_mb":                           end.LiveBytes / mb,
		"treebase.levels_nonempty":                   end.LevelsUsed,

		"flsm.guards":                    end.Guards,
		"flsm.empty_guards":              end.EmptyGuards,
		"flsm.tables_per_nonempty_guard": ratio(end.GuardedTables, end.Guards-end.EmptyGuards),
		"flsm.tables_probed_per_get":     ratio(d.TablesProbed, d.Gets),
		"flsm.tables_opened_per_scan":    ratio(d.IterTables, d.Iterators),

		"sstable.compression_ratio": ratio(end.PhysicalBytes, end.LogicalBytes),

		"bloom.negatives_per_get":   ratio(d.BloomNeg, d.Gets),
		"bloom.false_positive_rate": ratio(d.BloomFP, d.BloomFP+d.BloomNeg),

		"compress.encode_ms":             d.EncodeNs / 1e6,
		"compress.decode_ms":             d.DecodeNs / 1e6,
		"compress.blocks_decoded_per_op": ratio(d.BlocksDecoded, ops),

		"cache.hit_ratio": ratio(d.CacheHits, d.CacheHits+d.CacheMisses),

		"tablecache.hit_ratio":   ratio(d.TCHits, d.TCHits+d.TCMisses),
		"tablecache.open_tables": end.OpenTables,
		"tablecache.filter_mb":   end.FilterBytes / mb,
		"tablecache.index_mb":    end.IndexBytes / mb,

		"manifest.bytes_per_user_byte": ratio(end.ManifestW, end.UserBytes),

		"vfs.table_write_mb": d.TableWritten / mb,
		"vfs.table_read_mb":  d.TableRead / mb,
		"vfs.log_write_mb":   d.LogWritten / mb,
	}
}

package treebase

import (
	"pebblesdb/internal/base"
	"pebblesdb/internal/metric"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/vfs"
)

// OutputBuilder streams compaction or flush output into a sequence of
// sstables, each one the core keeps on disk from before its creation. The
// caller decides when to cut a table (guard boundary for FLSM, size
// threshold for leveled compaction).
type OutputBuilder struct {
	c     *Core
	wopts sstable.WriterOptions

	// cur is the open table's writer, nil between tables; w is the one
	// writer the builder makes, Reset from table to table so that its
	// scratch (block builders, hash lists, compression buffer) grows once.
	cur     *sstable.Writer
	w       *sstable.Writer
	curFile vfs.File
	curFn   base.FileNum

	metas []*base.FileMetadata
	stats sstable.CompressionStats
	err   error
}

// Add appends an entry to the current table, opening one if needed.
func (o *OutputBuilder) Add(ikey, value []byte) error {
	if o.err != nil {
		return o.err
	}
	if o.cur == nil {
		if err := o.open(); err != nil {
			return err
		}
	}
	return o.setErr(o.cur.Add(ikey, value))
}

func (o *OutputBuilder) open() error {
	fn := o.c.NewFileNum()
	o.c.keep(fn)
	f, err := o.c.fs.Create(o.c.tablePath(fn))
	if err != nil {
		o.c.forget(fn)
		return o.setErr(err)
	}
	if o.w == nil {
		o.w = sstable.NewWriter(f, o.wopts)
	} else {
		o.w.Reset(f)
	}
	o.cur = o.w
	o.curFile = f
	o.curFn = fn
	return nil
}

// AddRangeDels attaches range tombstones to the current table, opening one
// if needed. The caller has already fragmented and truncated them to the
// table's intended bounds (guard partition interval or leveled cut
// boundaries); the writer coalesces them into the table's range-del block
// at Cut. A table may hold tombstones and no points.
func (o *OutputBuilder) AddRangeDels(ts []rangedel.Tombstone) error {
	if o.err != nil {
		return o.err
	}
	if len(ts) == 0 {
		return nil
	}
	if o.cur == nil {
		if err := o.open(); err != nil {
			return err
		}
	}
	for _, t := range ts {
		o.cur.AddRangeDel(t.Start, t.End, t.Seq)
	}
	return nil
}

// CurrentSize returns the estimated size of the open table.
func (o *OutputBuilder) CurrentSize() uint64 {
	if o.cur == nil {
		return 0
	}
	return o.cur.EstimatedSize()
}

// Cut finishes the open table, syncing it and recording its metadata.
// No-op when no table is open.
func (o *OutputBuilder) Cut() error {
	if o.err != nil || o.cur == nil {
		return o.err
	}
	info, err := o.cur.Finish()
	if err == nil {
		err = o.curFile.Sync()
	}
	if cerr := o.curFile.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// The half-written table is garbage: remove it now rather than
		// leaving an orphan for the next open's sweep to find.
		o.c.fs.Remove(o.c.tablePath(o.curFn))
		o.c.forget(o.curFn)
		o.cur, o.curFile = nil, nil
		return o.setErr(err)
	}
	o.metas = append(o.metas, &base.FileMetadata{
		FileNum:       o.curFn,
		Size:          info.Size,
		Smallest:      info.Smallest,
		Largest:       info.Largest,
		NumRangeDels:  info.NumRangeDels,
		RangeDelStart: info.RangeDelStart,
		RangeDelEnd:   info.RangeDelEnd,
	})
	metric.Merge(&o.stats, &info.Compression)
	o.cur, o.curFile = nil, nil
	return nil
}

// CompressionStats returns the accumulated data-block codec accounting of
// every table finished so far.
func (o *OutputBuilder) CompressionStats() *sstable.CompressionStats { return &o.stats }

// Finish cuts any open table and returns the metadata of all tables
// written. An edit that installs them hands them to the views; Abandon
// removes them instead.
func (o *OutputBuilder) Finish() ([]*base.FileMetadata, error) {
	if err := o.Cut(); err != nil {
		return nil, err
	}
	return o.metas, o.err
}

// Abandon closes and removes any open table after a failure.
func (o *OutputBuilder) Abandon() {
	if o.cur != nil {
		o.curFile.Close()
		o.c.fs.Remove(o.c.tablePath(o.curFn))
		o.c.forget(o.curFn)
		o.cur = nil
	}
	for _, m := range o.metas {
		o.c.fs.Remove(o.c.tablePath(m.FileNum))
		o.c.forget(m.FileNum)
	}
	o.metas = nil
}

func (o *OutputBuilder) setErr(err error) error {
	if o.err == nil {
		o.err = err
	}
	return o.err
}

// Metrics aggregates tree-level statistics reported up through the engine.
type Metrics struct {
	// Compactions counts completed compaction units.
	Compactions int64 `metric:"pebblesdb_compactions_total" help:"Completed compactions."`
	// TrivialMoves counts leveled-tree metadata-only moves.
	TrivialMoves int64 `metric:"pebblesdb_compaction_trivial_moves_total" help:"Metadata-only file moves (leveled)."`
	// InPlaceMerges counts FLSM last-level (and second-to-last) rewrites.
	InPlaceMerges int64 `metric:"pebblesdb_compaction_inplace_total" help:"In-place guard merges (FLSM last-level rewrites)."`
	// SeekCompactions counts compactions triggered by seek thresholds.
	SeekCompactions int64 `metric:"pebblesdb_compaction_seek_total" help:"Seek-triggered compactions."`
	// SeekPending is the point-in-time number of seek budgets used up — an
	// FLSM guard's, a leveled table's — whose unit has not run yet.
	SeekPending int64 `metric:"pebblesdb_compaction_seek_pending" help:"Seek budgets used up whose compaction has not run yet."`
	// SeekRestarts counts seek budgets, partly spent, that a charge found
	// a commit had restarted: reads between writes that did not add up.
	SeekRestarts int64 `metric:"pebblesdb_compaction_seek_restarts_total" help:"Partly spent seek budgets restarted by a commit."`
	// BytesCompactedIn / BytesCompactedOut are compaction read/write IO.
	BytesCompactedIn  int64 `metric:"pebblesdb_compaction_in_bytes_total" help:"Bytes read by compactions."`
	BytesCompactedOut int64 `metric:"pebblesdb_compaction_out_bytes_total" help:"Bytes written by compactions."`
	// BytesFlushed is memtable-flush write IO.
	BytesFlushed int64 `metric:"pebblesdb_flushed_bytes_total" help:"Bytes written by flushes."`
	// LevelFiles / LevelBytes describe the current version.
	LevelFiles []int   `metric:"pebblesdb_level_tables" label:"level" help:"Live sstables per level."`
	LevelBytes []int64 `metric:"pebblesdb_level_bytes" label:"level" help:"Live sstable bytes per level."`
	// GuardsPerLevel counts committed guards (FLSM only).
	GuardsPerLevel []int `metric:"pebblesdb_level_guards" label:"level" help:"FLSM guards per level."`
	// EmptyGuards counts committed guards with no files (FLSM only).
	EmptyGuards int `metric:"pebblesdb_empty_guards" help:"FLSM guards holding no sstable."`
	// ZombieTables / ZombieBytes count the tables deleted from the current
	// view that stay on disk because an older view that lists them is held
	// (an open iterator, a Get in flight) or because their removal failed
	// and waits for the next sweep. At rest both are 0.
	ZombieTables int64 `metric:"pebblesdb_zombie_tables" help:"Sstables deleted from the current version, kept on disk for a held older one."`
	ZombieBytes  int64 `metric:"pebblesdb_zombie_bytes" help:"Bytes of the sstables deleted from the current version, kept on disk for a held older one."`
	// TableFileSizes lists the sizes of all live sstables (Table 5.1).
	TableFileSizes []uint64 `metric:"-" merge:"concat" help:"one sample per live table is unbounded; level_tables and level_bytes carry the totals"`
	// CompactionUnits counts units claimed by the parallel compaction
	// scheduler (flsm: guard groups; leveled: input+target file sets).
	CompactionUnits int64 `metric:"pebblesdb_compaction_units_total" help:"Compaction units claimed by the parallel scheduler."`
	// UnitsInflight is the point-in-time number of running units.
	UnitsInflight int64 `metric:"pebblesdb_compaction_units_inflight" help:"Compaction units running now."`
	// PeakUnitsInflight is the high-water mark of concurrently running
	// units within one tree; merging takes the max, so an aggregate reports
	// the most parallel any single shard ever was.
	PeakUnitsInflight int64 `metric:"pebblesdb_compaction_peak_parallelism" merge:"max" help:"Peak concurrently-running compaction units."`
	// PeakLevelUnits[l] is the high-water mark of concurrent units whose
	// *source* is level l. PeakLevelUnits[l] > 1 for some l >= 1 is the
	// FLSM paper's structural claim realized: disjoint guards of one level
	// compacting simultaneously.
	PeakLevelUnits []int `metric:"pebblesdb_compaction_peak_level_parallelism" label:"level" merge:"max" help:"Peak concurrent compaction units per source level."`
	// ClaimConflicts counts picker passes that found pending work but
	// could claim none of it (every unit held by a running peer);
	// ClaimStallNanos is the time workers spent in that state before the
	// next successful claim.
	ClaimConflicts  int64 `metric:"pebblesdb_compaction_claim_conflicts_total" help:"Times a worker found work pending but fully claimed."`
	ClaimStallNanos int64 `metric:"pebblesdb_compaction_claim_stall_nanos_total" help:"Wall time workers waited for claimable work."`
	// Compression accounts the write-side block codec across flushes and
	// compactions: logical (pre-compression) vs physical data-block bytes,
	// block counts, and encoder time.
	Compression sstable.CompressionStats
}

// MaxLevelParallelism is the largest per-source-level unit high-water mark
// at levels >= 1 — the single-level concurrency number the FLSM guard
// structure is supposed to unlock.
func (m Metrics) MaxLevelParallelism() int {
	best := 0
	for l, u := range m.PeakLevelUnits {
		if l >= 1 && u > best {
			best = u
		}
	}
	return best
}

// Package treebase is the tree. Core owns everything the FLSM tree (the
// paper's contribution) and the leveled LSM tree (the baseline) share —
// the manifest, the table cache, flush, the compaction driver, the merge
// loop with its snapshot-aware garbage collection, the output table builder
// — and a Layout (internal/flsm, internal/leveled) supplies the decisions
// the paper changed. Keeping everything else common makes the FLSM-vs-LSM
// benchmarks an apples-to-apples comparison of the two level organisations
// alone.
package treebase

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/tablecache"
	"pebblesdb/internal/vfs"
)

// Layout is what distinguishes one tree kind from another — the part of
// HyperLevelDB the paper changed. It answers four questions and nothing
// else: how a version is organised and an edit applied to it; which
// compaction units are claimable and how one is claimed and released; what
// a claimed unit merges, where the output goes and where it is cut (the
// Unit that Pick returns); and how a key or an iterator request finds its
// candidate tables.
//
// Apply, Walk, L0Count, Claimable, Pick and Release are called with
// Core.Mu held (Apply also during Open, before the core is shared) and
// must not block. Get, NewIters, WantGuard and Ingest are called without
// it; they take Core.Mu themselves for as long as it takes to pin the
// current version or touch shared state. Claimable and a steady-state Get
// must not allocate.
type Layout interface {
	// Apply makes the version that results from edit the current one. On
	// error the current version is unchanged.
	Apply(edit *manifest.VersionEdit) error
	// Walk visits the current version's files group by group, shallowest
	// level first, in the order a snapshot edit lists them. guard is the
	// key of the guard that holds the files, nil for files under no guard
	// (level 0, an FLSM sentinel, every leveled level). A guard is visited
	// even when it holds no files; other empty groups may be skipped.
	Walk(fn func(level int, guard []byte, files []*base.FileMetadata))
	L0Count() int

	// Claimable counts the units a worker could claim right now, stopping
	// at limit. With ignoreClaims it counts pending work as if nothing
	// were claimed, which tells "no work" from "peers hold it all".
	Claimable(limit int, ignoreClaims bool) int
	// Pick claims the next unit by the layout's triggers, or nil. With
	// force it claims a unit pushing the shallowest populated level down
	// regardless of triggers, or nil once everything sits in the last
	// level.
	Pick(force bool) *Unit
	// Release returns u's claims. done reports that u's edit was installed
	// and persisted.
	Release(u *Unit, done bool)

	// Get returns the newest version of ukey visible at seq. latest, when
	// non-nil, replaces seq with its value loaded after the version is
	// pinned (see Core.Get). The value aliases immutable table storage.
	Get(ukey []byte, seq base.SeqNum, latest *atomic.Uint64, s *sstable.GetScratch) (value []byte, found bool, err error)
	// NewIters appends the pinned version's point iterators to dst and
	// returns them with every range tombstone held by a table overlapping
	// the request's bounds. On error it returns the iterators opened so
	// far; the core closes them.
	NewIters(req IterRequest, dst []iterator.Iterator) ([]iterator.Iterator, []rangedel.Tombstone, error)
	// WantGuard is the lock-free pre-filter for Ingest.
	WantGuard(ukey []byte) bool
	// Ingest is the per-key write hook (FLSM guard selection, §3.2).
	Ingest(ukey []byte)
}

// Unit is one claimed compaction unit in the form the core executes.
type Unit struct {
	// Level is the source level: it keys the per-level unit counters and
	// labels the unit's events.
	Level int
	// Lo and Hi bound the unit in its events: the first and last source
	// guard for FLSM, the input key hull for leveled.
	Lo, Hi string
	// Seek marks a unit triggered by an exhausted seek budget.
	Seek bool
	// Move makes the unit a metadata-only move of Merges[0].Files[0] to
	// Merges[0].Dst: no table is read or written.
	Move   bool
	Merges []Merge
	// Guards are the guards the unit's edit commits.
	Guards []manifest.GuardEntry
	// Claim is the layout's own record of what the unit holds.
	Claim any
}

// Merge is one merge-sort of a unit: its inputs, where the output lands
// and where it is cut into tables.
type Merge struct {
	// Files are the inputs at the unit's source level; Overlap are the
	// tables already in Dst that the output replaces.
	Files   []*base.FileMetadata
	Overlap []*base.FileMetadata
	Dst     int
	// InPlace marks a rewrite within the source level.
	InPlace bool
	// Elide drops deletion and range tombstones every snapshot can see:
	// set only when the inputs hold everything older than the tombstones
	// could mask.
	Elide bool
	Cut   CutPolicy
}

// CutPolicy says where a merge's output stream is cut into tables.
type CutPolicy struct {
	// Keys are user keys the output is cut at, ascending: no table holds
	// keys on both sides of one (FLSM: the destination's guards).
	Keys [][]byte
	// Size, when non-zero, also cuts once the open table reaches it, but
	// never between two versions of one user key (leveled: deeper levels
	// stay disjoint in user keys).
	Size uint64
}

// Core is a tree: everything a leveled LSM and an FLSM share. It owns the
// manifest, the table cache, flush, the compaction driver and the merge
// loop, and delegates the decisions the paper changed to its Layout.
// All methods are safe for concurrent use.
type Core struct {
	kind   Kind
	cfg    *base.Config
	fs     vfs.FS
	dir    string
	vs     *manifest.VersionSet
	tc     *tablecache.TableCache
	host   Host
	layout Layout

	// Mu guards the layout's shared state (current version, claims, seek
	// budgets) and the core's counters below.
	Mu      sync.Mutex
	metrics Metrics
	// units / levelUnits count running units (total / per source level).
	units      int
	levelUnits []int
	// claimStallStart, when non-zero, is when a worker first found work
	// pending but all of it claimed; see CompactOnce.
	claimStallStart time.Time
	// installTicket is the next ticket handed out at install.
	installTicket uint64

	// unitID numbers units so concurrent begin/end events pair up.
	unitID atomic.Uint64

	// logMu/logCond order manifest appends by install ticket; installTurn
	// is the next ticket allowed to append. See logAndInstall.
	logMu       sync.Mutex
	logCond     *sync.Cond
	installTurn uint64

	pendingMu sync.Mutex
	pending   map[base.FileNum]bool
}

// Kind names a tree kind and says whether its levels below 0 are
// partitioned by guards: a guarded tree reports GuardsPerLevel from the
// start, and Dump lists its tables under their guards.
type Kind struct {
	Name    string
	Guarded bool
}

// Open creates or recovers a tree in dir. newLayout builds the layout for
// the core it is handed.
func Open(kind Kind, cfg *base.Config, fs vfs.FS, dir string, host Host, newLayout func(*Core) Layout) (*Core, error) {
	c := &Core{
		kind:       kind,
		cfg:        cfg,
		fs:         fs,
		dir:        dir,
		host:       host,
		levelUnits: make([]int, cfg.NumLevels),
		pending:    make(map[base.FileNum]bool),
	}
	c.metrics.PeakLevelUnits = make([]int, cfg.NumLevels)
	c.logCond = sync.NewCond(&c.logMu)
	c.tc = tablecache.New(fs, dir, cfg.TableCacheSize, cache.New(cfg.BlockCacheSize, nil))
	c.layout = newLayout(c)

	if manifest.Exists(fs, dir) {
		vs, err := manifest.Load(fs, dir, c.layout.Apply)
		if err != nil {
			return nil, err
		}
		c.vs = vs
		if err := vs.StartAppending(c.snapshotEditLocked()); err != nil {
			return nil, err
		}
	} else {
		vs, err := manifest.Create(fs, dir)
		if err != nil {
			return nil, err
		}
		c.vs = vs
	}
	c.vs.Listener = cfg.EventListener
	return c, nil
}

// NewFileNum allocates a file number (also used by the engine for WALs).
func (c *Core) NewFileNum() base.FileNum { return c.vs.NewFileNum() }

// LogNum returns the WAL number recovery must replay from; older logs are
// obsolete.
func (c *Core) LogNum() base.FileNum { return c.vs.LogNum() }

// PersistedLastSeq returns the sequence watermark from the manifest.
func (c *Core) PersistedLastSeq() base.SeqNum { return c.vs.LastSeq() }

// ManifestFileNum exposes the live manifest number for the sweeper.
func (c *Core) ManifestFileNum() base.FileNum { return c.vs.ManifestFileNum() }

// EvictTable drops a deleted table from the caches.
func (c *Core) EvictTable(fn base.FileNum) { c.tc.Evict(fn) }

// CacheMetrics reports table-cache statistics (Table 5.4).
func (c *Core) CacheMetrics() tablecache.Metrics { return c.tc.Metrics() }

// WantGuard reports whether ukey is a guard candidate: a pure hash check,
// no locks, so the commit pipeline pays Ingest's copy and mutex only for
// the rare keys that qualify.
func (c *Core) WantGuard(ukey []byte) bool { return c.layout.WantGuard(ukey) }

// Ingest hands an inserted key to the layout.
func (c *Core) Ingest(ukey []byte) { c.layout.Ingest(ukey) }

// L0Count returns the number of level-0 files (write stalls).
func (c *Core) L0Count() int {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.layout.L0Count()
}

// AddPending registers an in-flight output file (PendingRegistry).
func (c *Core) AddPending(fn base.FileNum) {
	c.pendingMu.Lock()
	c.pending[fn] = true
	c.pendingMu.Unlock()
}

// RemovePending unregisters an in-flight output file.
func (c *Core) RemovePending(fn base.FileNum) {
	c.pendingMu.Lock()
	delete(c.pending, fn)
	c.pendingMu.Unlock()
}

func (c *Core) newOutputBuilder() *OutputBuilder {
	return NewOutputBuilder(c.fs, c.dir, sstable.WriterOptions{
		BlockSize:            c.cfg.BlockSize,
		BlockRestartInterval: c.cfg.BlockRestartInterval,
		BloomBitsPerKey:      c.cfg.BloomBitsPerKey,
		PrefixBloomLength:    c.cfg.PrefixBloomLength,
		Compression:          c.cfg.Compression,
	}, c.vs, c)
}

// Flush writes one frozen memtable — point entries plus range tombstones —
// as a level-0 sstable and logs an edit recording the new WAL number and
// sequence watermark.
func (c *Core) Flush(it iterator.Iterator, rangeDels []rangedel.Tombstone, logNum base.FileNum, lastSeq base.SeqNum) error {
	ob := c.newOutputBuilder()
	for it.First(); it.Valid(); it.Next() {
		if err := ob.Add(it.Key(), it.Value()); err != nil {
			ob.Abandon()
			return err
		}
	}
	if err := it.Error(); err != nil {
		ob.Abandon()
		return err
	}
	if err := ob.AddRangeDels(rangeDels); err != nil {
		ob.Abandon()
		return err
	}
	metas, err := ob.Finish()
	if err != nil {
		ob.Abandon()
		return err
	}
	edit := &manifest.VersionEdit{}
	edit.SetLogNum(logNum)
	edit.SetLastSeq(lastSeq)
	var flushed int64
	for _, m := range metas {
		edit.NewFiles = append(edit.NewFiles, manifest.NewFileEntry{Level: 0, Meta: *m})
		flushed += int64(m.Size)
	}
	// A retried flush re-adds the same keys at the same sequence numbers,
	// so tables kept after an installed-but-unpersisted edit do no harm.
	if err := c.installOutputs(edit, ob); err != nil {
		return err
	}
	c.Mu.Lock()
	c.metrics.BytesFlushed += flushed
	c.metrics.Compression.Merge(ob.CompressionStats())
	c.Mu.Unlock()
	return nil
}

// installOutputs installs and persists edit, whose new files the builders
// wrote, and settles the files' fate — the install-vs-persist rule. Once
// the in-memory version switch has happened the files are referenced by
// live reads even if persisting the edit failed, so they stay on disk: the
// failed append forces the next one to rotate the manifest with a full
// snapshot of the installed state, which makes them durable. Only an edit
// that was never installed has its outputs removed.
func (c *Core) installOutputs(edit *manifest.VersionEdit, builders ...*OutputBuilder) error {
	installed, err := c.logAndInstall(edit)
	for _, ob := range builders {
		if installed {
			ob.ReleasePending()
		} else {
			ob.Abandon()
		}
	}
	return err
}

// logAndInstall installs the version resulting from edit, then persists
// the edit. installed reports whether the in-memory switch happened.
// Install-then-log keeps the rotation snapshot (which reads the current
// version) consistent with the edit it replaces.
//
// Units install concurrently, so the manifest append must happen in install
// order: an edit deleting file f has to land after the edit that added f,
// or recovery replay rejects it. Each install takes a ticket under Mu (the
// critical section that switches the version) and waits its turn before
// appending; the turn advances even when the append fails, so one degraded
// unit cannot wedge its peers.
func (c *Core) logAndInstall(edit *manifest.VersionEdit) (installed bool, err error) {
	c.Mu.Lock()
	if err := c.layout.Apply(edit); err != nil {
		c.Mu.Unlock()
		return false, err
	}
	ticket := c.installTicket
	c.installTicket++
	c.Mu.Unlock()

	c.logMu.Lock()
	for c.installTurn != ticket {
		c.logCond.Wait()
	}
	c.logMu.Unlock()
	err = c.vs.LogAndApply(edit, func() *manifest.VersionEdit {
		c.Mu.Lock()
		defer c.Mu.Unlock()
		return c.snapshotEditLocked()
	})
	c.logMu.Lock()
	c.installTurn++
	c.logCond.Broadcast()
	c.logMu.Unlock()
	return true, err
}

// snapshotEditLocked describes the full current version as one edit.
func (c *Core) snapshotEditLocked() *manifest.VersionEdit {
	e := &manifest.VersionEdit{}
	c.layout.Walk(func(level int, guard []byte, files []*base.FileMetadata) {
		if guard != nil {
			e.NewGuards = append(e.NewGuards, manifest.GuardEntry{Level: level, Key: guard})
		}
		for _, f := range files {
			e.NewFiles = append(e.NewFiles, manifest.NewFileEntry{Level: level, Meta: *f})
		}
	})
	return e
}

// Get returns the newest visible version of ukey at seq. latest, when
// non-nil, is the engine's committed-sequence counter: the layout pins its
// current version first and only then loads the read sequence from it, so
// a concurrent compaction can never collapse every version <= seq out of
// the probed view (a version is only dropped when a newer, also-committed
// one shadows it — which the later load then makes visible). Snapshot
// reads pass latest=nil: SmallestSnapshot protects them from collapse. s,
// when non-nil, supplies the reusable point-read working set, and a
// steady-state Get then allocates nothing; nil borrows one from the shared
// pool. The returned value aliases an immutable block payload or cache
// entry and must be copied if it outlives the read.
func (c *Core) Get(ukey []byte, seq base.SeqNum, latest *atomic.Uint64, s *sstable.GetScratch) (value []byte, found bool, err error) {
	if s == nil {
		s = sstable.AcquireGetScratch()
		defer sstable.ReleaseGetScratch(s)
	}
	return c.layout.Get(ukey, seq, latest, s)
}

// ProbeFile checks one sstable for the newest visible point entry of ukey
// and the newest visible range tombstone covering it (cov), in a single
// table-cache round-trip. File bounds include tombstone spans, so the range
// check cannot reject a file whose tombstones cover ukey; the resident
// tombstone list answers with one binary search, no block IO. probed
// reports whether the table's blocks were searched (the bloom filter passed
// or was absent) — the input to seek charging.
func (c *Core) ProbeFile(f *base.FileMetadata, ukey []byte, seq base.SeqNum, s *sstable.GetScratch) (val []byte, fseq base.SeqNum, kind base.Kind, cov base.SeqNum, hit, probed bool, err error) {
	if !userKeyInRange(ukey, f) {
		return nil, 0, 0, 0, false, false, nil
	}
	r, err := c.tc.Find(f.FileNum, f.Size)
	if err != nil {
		return nil, 0, 0, 0, false, false, err
	}
	if f.RangeDelSpanContains(ukey) {
		cov = r.RangeDels().CoverSeq(ukey, seq)
	}
	if !r.MayContain(ukey) {
		s.Stats.BloomNegatives++
		r.Unref()
		return nil, 0, 0, cov, false, false, nil
	}
	val, fseq, kind, hit, err = r.GetScratched(s.SearchKey, s)
	r.Unref()
	return val, fseq, kind, cov, hit, true, err
}

// userKeyInRange sits on the Get hot path for every candidate file;
// bytes.Compare keeps it allocation-free without relying on the compiler's
// string-conversion optimization.
func userKeyInRange(ukey []byte, f *base.FileMetadata) bool {
	return bytes.Compare(ukey, f.SmallestUserKey()) >= 0 &&
		bytes.Compare(ukey, f.LargestUserKey()) <= 0
}

// NewIters returns the point iterators of the pinned version, appended to
// dst (which pooled callers recycle), plus every range tombstone held by a
// table overlapping the request's bounds; the engine merges those with the
// memtables' into one visibility mask. File bounds include tombstone
// spans, so bounds pruning cannot lose a tombstone that could mask an
// in-bounds key.
func (c *Core) NewIters(req IterRequest, dst []iterator.Iterator) ([]iterator.Iterator, []rangedel.Tombstone, error) {
	iters, rds, err := c.layout.NewIters(req, dst)
	if err != nil {
		for _, it := range iters {
			it.Close()
		}
		return nil, nil, err
	}
	return iters, rds, nil
}

// OpenIter opens a pooled iterator over f for req, or returns nil when f's
// prefix bloom filter rules the request's prefix out — before any block is
// read.
func (c *Core) OpenIter(req *IterRequest, f *base.FileMetadata) (iterator.Iterator, error) {
	r, err := c.tc.Find(f.FileNum, f.Size)
	if err != nil {
		return nil, err
	}
	if req.Prefix != nil && !r.MayContainPrefix(req.Prefix) {
		r.Unref()
		req.CountPrefixSkip()
		return nil, nil
	}
	req.CountOpen()
	return GetTableIter(r), nil
}

// AppendRangeDels appends f's range tombstones to rds. Tables flagged
// clean in their metadata — the overwhelming majority — are skipped without
// opening; flagged tables hand back their resident list, so no block IO
// happens here either.
func (c *Core) AppendRangeDels(rds []rangedel.Tombstone, f *base.FileMetadata) ([]rangedel.Tombstone, error) {
	if f.NumRangeDels == 0 {
		return rds, nil
	}
	r, err := c.tc.Find(f.FileNum, f.Size)
	if err != nil {
		return rds, err
	}
	rds = append(rds, r.RangeDels().Raw()...)
	r.Unref()
	return rds, nil
}

// ProtectedFiles returns every table file the sweeper must keep: live plus
// in-flight. The pending set is read before the version: files move
// pending -> version, so this order guarantees a file cannot slip between
// the two snapshots and be swept while live.
func (c *Core) ProtectedFiles() map[base.FileNum]bool {
	out := make(map[base.FileNum]bool)
	c.pendingMu.Lock()
	for fn := range c.pending {
		out[fn] = true
	}
	c.pendingMu.Unlock()
	c.Mu.Lock()
	c.layout.Walk(func(_ int, _ []byte, files []*base.FileMetadata) {
		for _, f := range files {
			out[f.FileNum] = true
		}
	})
	c.Mu.Unlock()
	return out
}

// Metrics reports tree statistics, including guard occupancy.
func (c *Core) Metrics() Metrics {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	m := c.metrics
	m.PeakLevelUnits = append([]int(nil), c.metrics.PeakLevelUnits...)
	m.UnitsInflight = int64(c.units)
	m.LevelFiles = make([]int, c.cfg.NumLevels)
	m.LevelBytes = make([]int64, c.cfg.NumLevels)
	if c.kind.Guarded {
		m.GuardsPerLevel = make([]int, c.cfg.NumLevels)
	}
	c.layout.Walk(func(level int, guard []byte, files []*base.FileMetadata) {
		if guard != nil {
			m.GuardsPerLevel[level]++
			if len(files) == 0 {
				m.EmptyGuards++
			}
		}
		m.LevelFiles[level] += len(files)
		for _, f := range files {
			m.LevelBytes[level] += int64(f.Size)
			m.TableFileSizes = append(m.TableFileSizes, f.Size)
		}
	})
	return m
}

// Dump writes the layout, Figure 3.1 style: per level its tables, in a
// guarded tree listed under the guard (or the sentinel) that holds them.
// Levels the layout does not walk — empty ones — are left out.
func (c *Core) Dump(w io.Writer) {
	type group struct {
		level int
		guard []byte
		files []*base.FileMetadata
	}
	var groups []group
	sums := make([]struct {
		files, guards int
		bytes         int64
	}, c.cfg.NumLevels)
	c.Mu.Lock()
	c.layout.Walk(func(level int, guard []byte, files []*base.FileMetadata) {
		groups = append(groups, group{level, guard, files})
		sums[level].files += len(files)
		for _, f := range files {
			sums[level].bytes += int64(f.Size)
		}
		if guard != nil {
			sums[level].guards++
		}
	})
	c.Mu.Unlock()

	fmt.Fprintf(w, "%s tree %s\n", c.kind.Name, c.dir)
	level := -1
	for _, g := range groups {
		if g.level != level {
			level = g.level
			switch sum := sums[level]; {
			case !c.kind.Guarded:
				fmt.Fprintf(w, "  level %d: %d files, %d bytes\n", level, sum.files, sum.bytes)
			case level == 0:
				fmt.Fprintf(w, "  level 0 (no guards): %d sstables\n", sum.files)
			default:
				fmt.Fprintf(w, "  level %d: %d guards, %d sstables, %d bytes\n", level, sum.guards, sum.files, sum.bytes)
			}
		}
		indent := "    "
		if c.kind.Guarded && level > 0 {
			indent = "      "
			if g.guard == nil {
				fmt.Fprintf(w, "    sentinel:\n")
			} else {
				fmt.Fprintf(w, "    guard %q: %d sstables\n", g.guard, len(g.files))
			}
		}
		for _, f := range g.files {
			fmt.Fprintf(w, "%s%s\n", indent, f)
		}
	}
}

// Close releases cached readers and the manifest.
func (c *Core) Close() error {
	c.tc.Close()
	return c.vs.Close()
}

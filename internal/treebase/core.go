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
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/metric"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/tablecache"
	"pebblesdb/internal/vfs"
)

// Layout is what distinguishes one tree kind from another — the part of
// HyperLevelDB the paper changed. It answers four questions and nothing
// else: how a version is organised and an edit applied to it; which
// compaction units its triggers make of the tables no running unit holds;
// what such a unit merges, where the output goes and where it is cut (the
// Unit that Pick returns); and which reads count against a seek budget (the
// SeekCharger or MissCharger it also implements). Where a key or an iterator
// finds its tables is not a method but data: the View that Apply hands back.
// What running units hold is not the layout's to keep either: the core
// passes its Claims in.
//
// Every method except the pure-hash WantGuard runs under the core's lock
// and must not block; views are immutable and are read without it.
// Claimable and a repeated charge of one guard or table must not allocate.
type Layout interface {
	// Apply returns the version that results from edit and makes it the one
	// the layout schedules against. On error nothing changes.
	Apply(edit *manifest.VersionEdit) (View, error)

	// Claimable counts the units the layout's triggers make of the tables
	// held does not hold, stopping at limit. Against the zero Claims it
	// counts pending work as if nothing were claimed, which tells "no work"
	// from "peers hold it all".
	Claimable(limit int, held Claims) int
	// Pick returns the first of the units Claimable counts, or nil; the
	// core marks its tables held. With force it returns a unit pushing the
	// shallowest populated level down regardless of triggers, or nil once
	// everything sits in the last level.
	Pick(force bool, held Claims) *Unit
	// Release tells the layout that u is over, just before the core lets go
	// of its tables. done reports that u's edit was installed and persisted.
	Release(u *Unit, done bool)

	// WantGuard is the lock-free pre-filter for Ingest.
	WantGuard(ukey []byte) bool
	// Ingest is the per-key write hook (FLSM guard selection, §3.2).
	Ingest(ukey []byte)
}

// The seek hooks (§4.2 seek-based compaction) are the reads that cost more
// tables than a compacted level would. A layout implements the hook of each
// read it budgets, and the core reports — and takes its lock for — only
// those: a read no budget counts costs nothing beyond its state. Exhausting
// a budget makes a unit claimable, and the charge that does so returns
// spent: nothing but a read would ever schedule that unit, so the core
// passes the news on to its Host (Host.ScheduleCompaction) once it has let
// go of its lock.
//
// An FLSM guard's budget counts consecutive reads, ones with no commit
// between them: each charge carries the committed sequence number
// (Host.CommittedSeq), and a charge that sees another number than the
// budget's last one restarts the budget before counting, so under writes,
// whose flushes would undo the unit, no budget runs out. restarted reports
// that the charge restarted a budget already partly spent. A leveled
// table's budget is LevelDB's allowed seeks, which no commit restarts.

// SeekBudgets is what both seek hooks report beside their charge.
type SeekBudgets interface {
	// SeekPending counts the budgets used up whose unit has not run yet.
	SeekPending() int
}

// SeekCharger is a Layout that budgets the reads that consult several
// tables of one group.
type SeekCharger interface {
	SeekBudgets
	// ChargeSeek reports, at committed sequence number seq, a read that
	// consulted more than one table of a group: an iterator seek that
	// positioned every table of a group of more than one, or a Get that
	// passed over the group's newest table holding its key range. guard is
	// the group's key. A group already pending is not made pending again.
	ChargeSeek(level int, guard []byte, seq base.SeqNum) (spent, restarted bool)
}

// MissCharger is a Layout that budgets the misses of point reads.
type MissCharger interface {
	SeekBudgets
	// ChargeMiss reports f, the first table a Get searched without finding
	// its key. A table of level 0 or of the last level is never reported:
	// the last level has nowhere to push a table, and level-0 tables overlap
	// each other, so compacting one down alone could bury a key's newest
	// version under an older one still in another level-0 table (the
	// level-0 count trigger handles level 0). A table already pending is
	// not made pending again.
	ChargeMiss(level int, f *base.FileMetadata) (spent bool)
}

// SeekBudget is one seek budget, as a layout keeps it per guard or per
// table: the charges counted since it was last full, and the committed
// sequence number of the last one. The zero SeekBudget is full.
type SeekBudget struct {
	used int
	seq  base.SeqNum
}

// Charge counts a charge at committed sequence number seq against a
// budget of full consecutive charges. A charge at another number than the
// last one's restarts the budget first: a commit came between them. It
// reports whether the charge used the budget up, which leaves it full
// again, and whether it restarted a budget already partly spent.
func (b *SeekBudget) Charge(full int, seq base.SeqNum) (usedUp, restarted bool) {
	if b.seq != seq {
		restarted = b.used > 0
		b.used, b.seq = 0, seq
	}
	if b.used++; b.used < full {
		return false, restarted
	}
	b.used = 0
	return true, restarted
}

// View is one immutable version of a layout's tables as the read path sees
// it: level 0, and below it levels that are each an ordered run of groups
// disjoint in user keys. The tables of one group may overlap each other,
// and are listed oldest first: every version of a user key, and every range
// tombstone covering it, that a table holds is newer than all that the
// tables before it hold of that key. The Get descent stops at the first
// table, newest first, that holds its key; CheckInvariants verifies the
// order. An FLSM level is its sentinel followed by its guards; a leveled
// level is a run of one-table groups. The core pins the current view under
// its lock and reads it without.
type View interface {
	// L0 returns the level-0 tables, newest first; they may all overlap.
	L0() []*base.FileMetadata
	// Groups returns the number of groups of level (>= 1).
	Groups(level int) int
	// Group returns group i of level: the key of the guard that holds it
	// (nil for tables under no guard) and its tables, oldest first.
	Group(level, i int) (guard []byte, files []*base.FileMetadata)
	// Find returns the first group of level that ends at or after ukey —
	// where a seek to ukey lands, Groups(level) when there is none — and
	// that group's tables if ukey lies inside it, the only tables of the
	// level that can hold ukey.
	Find(level int, ukey []byte) (i int, files []*base.FileMetadata)
	// Span returns the groups [lo, hi) of level that can hold a key within
	// b; lo == hi when the level holds no table.
	Span(level int, b base.Bounds) (lo, hi int)
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
}

// Claims is the one record of what running compaction units own, and they
// own tables: every table a unit reads — its inputs and the tables of the
// destination its output replaces — from Pick to Release. The core keeps the
// registry, marks a unit's tables when Pick returns it and unmarks them after
// Release; a layout only asks. A claim follows its table: when a peer commits
// a guard inside a group a unit holds, the tables that move under the new
// guard are still held there, so no group of the level can be handed out
// twice. Level 0 is the exception to "tables only": its tables overlap each
// other, so one unit takes them all and a second must wait for its Release
// even though tables flushed meanwhile are free — L0 says so. The zero
// Claims holds nothing.
type Claims struct {
	owner map[base.FileNum]*Unit
	l0    int // running units whose source is level 0
}

// Has reports whether a running unit holds f.
func (h Claims) Has(f *base.FileMetadata) bool { return h.owner[f.FileNum] != nil }

// Any reports whether a running unit holds any of files.
func (h Claims) Any(files []*base.FileMetadata) bool {
	for _, f := range files {
		if h.owner[f.FileNum] != nil {
			return true
		}
	}
	return false
}

// L0 reports whether a unit whose source is level 0 is running.
func (h Claims) L0() bool { return h.l0 > 0 }

// Mark records u as the holder of every table it reads.
func (h *Claims) Mark(u *Unit) {
	if h.owner == nil {
		h.owner = make(map[base.FileNum]*Unit)
	}
	u.tables(func(_ int, f *base.FileMetadata) { h.owner[f.FileNum] = u })
	if u.Level == 0 {
		h.l0++
	}
}

// Unmark lets go of what Mark recorded for u.
func (h *Claims) Unmark(u *Unit) {
	u.tables(func(_ int, f *base.FileMetadata) { delete(h.owner, f.FileNum) })
	if u.Level == 0 {
		h.l0--
	}
}

// tables visits every table u reads with the level it sits at.
func (u *Unit) tables(fn func(level int, f *base.FileMetadata)) {
	for i := range u.Merges {
		m := &u.Merges[i]
		for _, f := range m.Files {
			fn(u.Level, f)
		}
		for _, f := range m.Overlap {
			fn(m.Dst, f)
		}
	}
}

// Merge is one merge-sort of a unit: its inputs, where the output lands
// and where it is cut into tables.
type Merge struct {
	// Guard is the key of the guard that held Files when the unit was
	// picked, nil for tables under no guard.
	Guard []byte
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
	blocks *cache.Cache // the table cache's block cache
	host   Host
	layout Layout
	// seeks and misses are the layout's seek hooks, nil when it has none;
	// budgets is whichever of the two it has.
	seeks   SeekCharger
	misses  MissCharger
	budgets SeekBudgets

	// mu guards the layout's state (guard candidates, seek budgets), the
	// states and the table lifetimes below, the claims and the core's
	// counters.
	mu     sync.Mutex
	claims Claims
	// cur is the current state; states are the held ones in install order,
	// cur last until Close; installs numbers them.
	cur      *State
	states   []*State
	installs uint64
	// tables holds every table on disk the core knows of, outputs being
	// written (born 0) included. dead are those a persisted edit deleted,
	// removed once no held state lists them (the zombies); owed are those
	// an installed edit deleted whose append failed: the next append that
	// succeeds rotates the manifest to a snapshot without them.
	tables     map[base.FileNum]tableLife
	dead, owed []base.FileNum
	// doomed are the dead no held state lists any more, which the next
	// sweep removes.
	doomed []base.FileNum
	// closed turns reads away; Close waits on drained for the last held
	// state and for removing, the doomed tables not yet removed, to reach 0.
	// CompactAll waits on it for a running unit to end.
	closed   bool
	drained  *sync.Cond
	removing int
	metrics  Metrics
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
}

// Kind names a tree kind and says whether its levels below 0 are
// partitioned by guards: a guarded tree reports GuardsPerLevel from the
// start, and Dump lists its tables under their guards.
type Kind struct {
	Name    string
	Guarded bool
}

// Open creates or recovers a tree in dir whose versions layout organises;
// empty is the layout's version of a tree without tables.
func Open(kind Kind, cfg *base.Config, fs vfs.FS, dir string, host Host, layout Layout, empty View) (*Core, error) {
	c := &Core{
		kind:       kind,
		cfg:        cfg,
		fs:         fs,
		dir:        dir,
		host:       host,
		layout:     layout,
		levelUnits: make([]int, cfg.NumLevels),
		tables:     make(map[base.FileNum]tableLife),
	}
	c.cur = &State{c: c, view: empty}
	c.cur.refs.Store(1)
	c.states = []*State{c.cur}
	c.drained = sync.NewCond(&c.mu)
	c.seeks, _ = layout.(SeekCharger)
	c.misses, _ = layout.(MissCharger)
	c.budgets, _ = layout.(SeekBudgets)
	c.metrics.PeakLevelUnits = make([]int, cfg.NumLevels)
	c.logCond = sync.NewCond(&c.logMu)
	c.blocks = cache.New(cfg.BlockCacheSize)
	c.tc = tablecache.New(fs, dir, cfg.TableCacheSize, c.blocks)

	if manifest.Exists(fs, dir) {
		vs, err := manifest.Load(fs, dir, c.applyLocked)
		if err != nil {
			return nil, err
		}
		c.vs = vs
		if err := vs.StartAppending(c.snapshotEdit()); err != nil {
			return nil, err
		}
		c.walk(c.cur.view, func(_ int, _ []byte, files []*base.FileMetadata) {
			for _, f := range files {
				c.tables[f.FileNum] = tableLife{born: c.cur.n, died: math.MaxUint64, size: f.Size}
			}
		})
	} else {
		vs, err := manifest.Create(fs, dir)
		if err != nil {
			return nil, err
		}
		c.vs = vs
	}
	c.vs.Listener = cfg.EventListener
	// What a crash or a failed append left behind goes: temp files, and
	// tables the recovered version does not list. A directory that cannot
	// be listed keeps them for the next Open.
	names, _ := fs.List(dir)
	for _, name := range names {
		ft, fn, ok := base.ParseFilename(name)
		if _, known := c.tables[fn]; ok && (ft == base.FileTypeTemp || ft == base.FileTypeTable && !known) {
			fs.Remove(filepath.Join(dir, name))
		}
	}
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

// CacheMetrics reports table-cache statistics (Table 5.4).
func (c *Core) CacheMetrics() tablecache.Metrics { return c.tc.Metrics() }

// BlockCache returns the block cache every table of the tree reads through.
func (c *Core) BlockCache() *cache.Cache { return c.blocks }

// WantGuard reports whether ukey is a guard candidate: a pure hash check,
// no locks, so the commit pipeline pays Ingest's copy and mutex only for
// the rare keys that qualify.
func (c *Core) WantGuard(ukey []byte) bool { return c.layout.WantGuard(ukey) }

// Ingest hands an inserted key to the layout. Any key may be passed; the
// commit pipeline passes only those WantGuard accepts, which keeps the
// core's lock off its path.
func (c *Core) Ingest(ukey []byte) {
	c.mu.Lock()
	c.layout.Ingest(ukey)
	c.mu.Unlock()
}

// ErrClosed is returned by a read that reaches a closed tree.
var ErrClosed = errors.New("store is closed")

// State is one installed view as reads hold it. A reader of tables — a
// Get, an iterator, CheckInvariants — holds the current state from before
// its first table read to after its last, and a table is removed once the
// edit deleting it is persisted and no held state lists it: LevelDB's
// refcounted versions, with no directory listing. A unit's inputs need no
// state: its claim keeps other units off them, and only its edit deletes
// them.
type State struct {
	c    *Core
	view View
	// rangeDels lists the tables of view that carry range tombstones —
	// almost always none — so an iterator collects tombstones without
	// walking the version.
	rangeDels []*base.FileMetadata
	n         uint64 // install number
	// refs counts the reads holding the state, plus one while it is
	// current, so that a release reaches zero — and takes the core's lock
	// — only on a state superseded, which no acquire can revive.
	refs atomic.Int32
}

// tableLife says which states list a table: those installed from born on,
// up to died once an edit deleting it is installed.
type tableLife struct{ born, died, size uint64 }

// view returns the current view, for readers of metadata alone: views are
// immutable, so everything read from the result is consistent and needs no
// lock, but a reader of its tables holds a State (acquire).
func (c *Core) view() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.view
}

// Reading reports whether a read holds the current state; the engine's
// cleanup skips its directory listing while one does. A state the next
// install superseded does not count, so a held iterator delays the listing
// by one install at most.
func (c *Core) Reading() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.refs.Load() > 1
}

// acquire returns the current state, held until its Release.
func (c *Core) acquire() (*State, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.cur.refs.Add(1)
	return c.cur, nil
}

// Release lets go of a state acquired from the core. The last release of a
// superseded state removes the tables that only it still listed.
func (s *State) Release() {
	if s.refs.Add(-1) > 0 {
		return
	}
	c := s.c
	c.mu.Lock()
	c.dropLocked(s)
	c.collectLocked()
	c.mu.Unlock()
	c.sweep()
}

// unrefLocked drops the reference s holds for being current.
func (c *Core) unrefLocked(s *State) {
	if s.refs.Add(-1) == 0 {
		c.dropLocked(s)
	}
}

// dropLocked takes s, which nothing holds any more, out of the held states.
func (c *Core) dropLocked(s *State) {
	i := slices.Index(c.states, s)
	c.states = slices.Delete(c.states, i, i+1)
	if len(c.states) == 0 {
		c.drained.Broadcast() // only Close lets go of the current state
	}
}

// collectLocked moves from dead to doomed the tables no held state lists.
func (c *Core) collectLocked() {
	kept := c.dead[:0]
next:
	for _, fn := range c.dead {
		t := c.tables[fn]
		for _, s := range c.states {
			if t.born <= s.n && s.n < t.died {
				kept = append(kept, fn)
				continue next
			}
		}
		c.doomed = append(c.doomed, fn)
		c.removing++
	}
	c.dead = kept
}

// sweep removes the doomed tables, outside mu: from the table cache, from
// the disk, and only then from tables, so that CheckInvariants never finds
// a table on disk the core does not know. A table that cannot be removed
// (one already gone counts as removed) stays dead: the next collect dooms
// it again, and the next Open sweeps it if none does. A unit sweeps once it
// has let go of its claim, a flush once installed, a release when it freed
// tables.
func (c *Core) sweep() {
	c.mu.Lock()
	doomed := c.doomed
	c.doomed = nil
	c.mu.Unlock()
	if len(doomed) == 0 {
		return
	}
	c.tc.Evict(doomed...)
	var failed []base.FileNum
	for _, fn := range doomed {
		if err := c.fs.Remove(c.tablePath(fn)); err != nil && !errors.Is(err, os.ErrNotExist) {
			failed = append(failed, fn)
		}
	}
	c.mu.Lock()
	for _, fn := range doomed {
		if !slices.Contains(failed, fn) {
			delete(c.tables, fn)
		}
	}
	c.dead = append(c.dead, failed...)
	if c.removing -= len(doomed); c.removing == 0 {
		c.drained.Broadcast()
	}
	c.mu.Unlock()
}

// applyLocked makes the version that results from edit the current one.
// The caller holds mu, or — during Open — the core is not yet shared.
func (c *Core) applyLocked(edit *manifest.VersionEdit) error {
	v, err := c.layout.Apply(edit)
	if err != nil {
		return err
	}
	c.installs++
	prev := c.cur
	c.cur = &State{c: c, view: v, rangeDels: applyRangeDels(prev.rangeDels, edit), n: c.installs}
	c.cur.refs.Store(1)
	c.states = append(c.states, c.cur)
	c.unrefLocked(prev) // the tables it alone listed go once the edit is persisted
	return nil
}

// applyRangeDels returns the tombstone-carrying tables of the version that
// edit makes of the one that had cur. The usual edit touches no such table
// and gets cur back.
func applyRangeDels(cur []*base.FileMetadata, edit *manifest.VersionEdit) []*base.FileMetadata {
	adds := false
	for i := range edit.NewFiles {
		adds = adds || edit.NewFiles[i].Meta.NumRangeDels > 0
	}
	if len(cur) == 0 && !adds {
		return cur
	}
	// A moved table is deleted at one level and added at another.
	gone := make(map[base.FileNum]bool, len(edit.DeletedFiles))
	for _, d := range edit.DeletedFiles {
		gone[d.FileNum] = true
	}
	var next []*base.FileMetadata
	for _, f := range cur {
		if !gone[f.FileNum] {
			next = append(next, f)
		}
	}
	for i := range edit.NewFiles {
		if m := edit.NewFiles[i].Meta; m.NumRangeDels > 0 {
			next = append(next, &m)
		}
	}
	return next
}

// L0Count returns the number of level-0 files (write stalls).
func (c *Core) L0Count() int { return len(c.view().L0()) }

// keep records fn, an output about to be written, as a table on disk that
// no view lists yet; forget drops one whose file is gone.
func (c *Core) keep(fn base.FileNum) {
	c.mu.Lock()
	c.tables[fn] = tableLife{}
	c.mu.Unlock()
}

func (c *Core) forget(fn base.FileNum) {
	c.mu.Lock()
	delete(c.tables, fn)
	c.mu.Unlock()
}

// tablePath is where table fn lives.
func (c *Core) tablePath(fn base.FileNum) string {
	return filepath.Join(c.dir, base.MakeFilename(base.FileTypeTable, fn))
}

func (c *Core) newOutputBuilder() *OutputBuilder {
	return &OutputBuilder{c: c, wopts: sstable.WriterOptions{
		BloomBitsPerKey:   c.cfg.BloomBitsPerKey,
		PrefixBloomLength: c.cfg.PrefixBloomLength,
		Compression:       c.cfg.Compression,
	}}
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
	c.mu.Lock()
	c.metrics.BytesFlushed += flushed
	metric.Merge(&c.metrics.Compression, ob.CompressionStats())
	c.mu.Unlock()
	c.sweep()
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
		if !installed {
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
// or recovery replay rejects it. Each install takes a ticket under mu (the
// critical section that switches the version) and waits its turn before
// appending; the turn advances even when the append fails, so one degraded
// unit cannot wedge its peers.
//
// The tables the edit deletes, but for one it moves, are deleted once the
// edit is persisted and no held state lists them (see State). The turn
// advances only after that is recorded: a failed append owes its deletions
// to the next append that succeeds, which rotates the manifest to a
// snapshot without them, so the success must not settle the debts of an
// append that comes after it.
func (c *Core) logAndInstall(edit *manifest.VersionEdit) (installed bool, err error) {
	c.mu.Lock()
	if err := c.applyLocked(edit); err != nil {
		c.mu.Unlock()
		return false, err
	}
	n := c.cur.n
	for _, d := range edit.DeletedFiles {
		t := c.tables[d.FileNum]
		t.died = n
		c.tables[d.FileNum] = t
	}
	for i := range edit.NewFiles {
		m := &edit.NewFiles[i].Meta
		t := c.tables[m.FileNum]
		if t.born == 0 { // an output, not a moved table
			t = tableLife{born: n, size: m.Size}
		}
		t.died = math.MaxUint64
		c.tables[m.FileNum] = t
	}
	ticket := c.installTicket
	c.installTicket++
	c.mu.Unlock()

	c.logMu.Lock()
	for c.installTurn != ticket {
		c.logCond.Wait()
	}
	c.logMu.Unlock()
	err = c.vs.LogAndApply(edit, c.snapshotEdit)

	c.mu.Lock()
	dead := &c.dead
	if err != nil {
		dead = &c.owed
	} else {
		c.dead, c.owed = append(c.dead, c.owed...), nil
	}
	for _, d := range edit.DeletedFiles {
		if c.tables[d.FileNum].died == n {
			*dead = append(*dead, d.FileNum)
		}
	}
	c.collectLocked()
	c.mu.Unlock()

	c.logMu.Lock()
	c.installTurn++
	c.logCond.Broadcast()
	c.logMu.Unlock()
	return true, err
}

// walk visits v's tables group by group, shallowest level first, in the
// order a snapshot edit lists them. guard is the key of the guard that holds
// the files, nil for files under no guard (level 0, an FLSM sentinel, every
// leveled table). Level 0 and every guard are visited even when they hold no
// files; other empty groups are skipped.
func (c *Core) walk(v View, fn func(level int, guard []byte, files []*base.FileMetadata)) {
	fn(0, nil, v.L0())
	for lv := 1; lv < c.cfg.NumLevels; lv++ {
		for i, n := 0, v.Groups(lv); i < n; i++ {
			if guard, files := v.Group(lv, i); guard != nil || len(files) > 0 {
				fn(lv, guard, files)
			}
		}
	}
}

// snapshotEdit describes the full current version as one edit.
func (c *Core) snapshotEdit() *manifest.VersionEdit {
	e := &manifest.VersionEdit{}
	c.walk(c.view(), func(level int, guard []byte, files []*base.FileMetadata) {
		if guard != nil {
			e.NewGuards = append(e.NewGuards, manifest.GuardEntry{Level: level, Key: guard})
		}
		for _, f := range files {
			e.NewFiles = append(e.NewFiles, manifest.NewFileEntry{Level: level, Meta: *f})
		}
	})
	return e
}

// Metrics reports tree statistics, including guard occupancy.
func (c *Core) Metrics() Metrics {
	c.mu.Lock()
	m := c.metrics
	m.PeakLevelUnits = append([]int(nil), c.metrics.PeakLevelUnits...)
	m.UnitsInflight = int64(c.units)
	if c.budgets != nil {
		m.SeekPending = int64(c.budgets.SeekPending())
	}
	m.ZombieTables = int64(len(c.dead))
	for _, fn := range c.dead {
		m.ZombieBytes += int64(c.tables[fn].size)
	}
	v := c.cur.view
	c.mu.Unlock()
	m.LevelFiles = make([]int, c.cfg.NumLevels)
	m.LevelBytes = make([]int64, c.cfg.NumLevels)
	if c.kind.Guarded {
		m.GuardsPerLevel = make([]int, c.cfg.NumLevels)
	}
	c.walk(v, func(level int, guard []byte, files []*base.FileMetadata) {
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
	c.walk(c.view(), func(level int, guard []byte, files []*base.FileMetadata) {
		if level == 0 && len(files) == 0 && !c.kind.Guarded {
			return
		}
		groups = append(groups, group{level, guard, files})
		sums[level].files += len(files)
		for _, f := range files {
			sums[level].bytes += int64(f.Size)
		}
		if guard != nil {
			sums[level].guards++
		}
	})

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

// Close turns new reads away, waits for every held state to be released —
// an open iterator blocks it until closed — and for the tables the
// releases removed, then releases the resident table readers and the
// manifest.
func (c *Core) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.unrefLocked(c.cur)
	}
	for len(c.states) > 0 || c.removing > 0 {
		if len(c.doomed) > 0 { // collected by a goroutine that has yet to sweep
			c.mu.Unlock()
			c.sweep()
			c.mu.Lock()
			continue
		}
		c.drained.Wait()
	}
	c.mu.Unlock()
	c.tc.Close()
	return c.vs.Close()
}

package treebase

import (
	"bytes"
	"maps"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/metric"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
)

// NeedsCompaction reports whether claimable compaction work is pending.
// It runs on every commit group and worker wakeup, so the layouts evaluate
// their triggers against the live version without allocating.
func (c *Core) NeedsCompaction() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.layout.Claimable(1, c.claims) > 0
}

// ClaimableUnits estimates how many compaction units workers could claim
// right now; the engine sizes its worker pool to it. Allocation-free, and
// capped well above any realistic pool size.
func (c *Core) ClaimableUnits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.layout.Claimable(64, c.claims)
}

// Claimed returns the tables running units hold, each with its unit: a copy
// of the claims, for tests and tools.
func (c *Core) Claimed() map[base.FileNum]*Unit {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.claims.owner)
}

// pickLocked claims the next unit — marks its tables held — and updates the
// unit counters and high-water marks.
func (c *Core) pickLocked(force bool) *Unit {
	u := c.layout.Pick(force, c.claims)
	if u == nil {
		return nil
	}
	c.claims.Mark(u)
	c.units++
	c.levelUnits[u.Level]++
	c.metrics.CompactionUnits++
	if int64(c.units) > c.metrics.PeakUnitsInflight {
		c.metrics.PeakUnitsInflight = int64(c.units)
	}
	if c.levelUnits[u.Level] > c.metrics.PeakLevelUnits[u.Level] {
		c.metrics.PeakLevelUnits[u.Level] = c.levelUnits[u.Level]
	}
	return u
}

// CompactOnce claims and performs at most one compaction unit.
//
// Claim-stall accounting: a worker that finds work pending but all of it
// claimed by its peers starts the claim-stall clock. The clock stops, and
// the elapsed wait is folded into ClaimStallNanos, at the next successful
// claim or when a worker finds nothing pending at all — the peers finished
// the contended work and the tree went idle. The worker that releases the
// last unit looks for more work at once, so that moment is the release to
// within a scheduling quantum; idle time before the next flush is never
// charged as stall.
func (c *Core) CompactOnce() (bool, error) {
	c.mu.Lock()
	u := c.pickLocked(false)
	if u == nil && c.layout.Claimable(1, Claims{}) > 0 {
		c.metrics.ClaimConflicts++
		if c.claimStallStart.IsZero() {
			c.claimStallStart = time.Now()
		}
	} else if !c.claimStallStart.IsZero() {
		c.metrics.ClaimStallNanos += int64(time.Since(c.claimStallStart))
		c.claimStallStart = time.Time{}
	}
	c.mu.Unlock()
	if u == nil {
		return false, nil
	}
	return true, c.runCompaction(u)
}

// CompactAll drives compaction until no trigger fires and then, like
// LevelDB's manual CompactRange, keeps pushing data down until everything
// sits in the last level: a fully compacted store serves a seek from one
// sorted run (one guard group) instead of one per populated level. A unit
// that a background worker is running holds tables the push needs, so
// CompactAll waits for it to end instead of stopping short of the last
// level.
func (c *Core) CompactAll() error {
	for {
		did, err := c.CompactOnce()
		if err != nil {
			return err
		}
		if did {
			continue
		}
		c.mu.Lock()
		u := c.pickLocked(true)
		if u == nil && c.units > 0 {
			c.drained.Wait() // a unit ended: its output may trigger, so triggers first
			c.mu.Unlock()
			continue
		}
		c.mu.Unlock()
		if u == nil {
			return nil
		}
		if err := c.runCompaction(u); err != nil {
			return err
		}
	}
}

// unitResult is what a finished unit adds to the metrics and its end event.
type unitResult struct {
	bytesOut        int64
	tables, inPlace int
	compression     sstable.CompressionStats
}

// runCompaction performs a claimed unit between its begin and end events
// (source level, key range, unit id, input/output volume, duration). The
// end event follows the metrics and precedes the release of the claim: a
// listener that reads Metrics sees the unit booked and still in flight, and
// never sees the next unit on the same guards or files begin first.
func (c *Core) runCompaction(u *Unit) error {
	ev := obs.Event{
		Kind: obs.EventCompactionBegin, Nanos: obs.Monotonic(),
		Level: u.Level, Unit: c.unitID.Add(1), GuardLo: u.Lo, GuardHi: u.Hi,
	}
	switch {
	case u.Move:
		ev.Detail = "trivial-move"
	case u.Seek:
		ev.Detail = "seek"
	}
	u.tables(func(_ int, f *base.FileMetadata) {
		ev.InputTables++
		ev.InputBytes += int64(f.Size)
	})
	c.cfg.Emit(ev)
	start := time.Now()
	res, err := c.compactUnit(u)
	if err == nil {
		c.mu.Lock()
		if u.Move {
			c.metrics.TrivialMoves++
		} else {
			c.metrics.Compactions++
			c.metrics.InPlaceMerges += int64(res.inPlace)
			if u.Seek {
				c.metrics.SeekCompactions++
			}
			c.metrics.BytesCompactedIn += ev.InputBytes
			c.metrics.BytesCompactedOut += res.bytesOut
			metric.Merge(&c.metrics.Compression, &res.compression)
		}
		c.mu.Unlock()
	}
	ev.Kind, ev.Nanos = obs.EventCompactionEnd, obs.Monotonic()
	ev.OutputTables, ev.OutputBytes = res.tables, res.bytesOut
	ev.Dur, ev.Err = time.Since(start), err
	c.cfg.Emit(ev)

	c.mu.Lock()
	c.layout.Release(u, err == nil)
	c.claims.Unmark(u)
	c.units--
	c.levelUnits[u.Level]--
	c.drained.Broadcast() // for CompactAll, waiting out this unit's claims
	c.mu.Unlock()
	c.sweep()
	return err
}

// compactUnit runs u's merges and installs the resulting edit: inputs
// deleted, outputs added, guards committed.
func (c *Core) compactUnit(u *Unit) (unitResult, error) {
	var res unitResult
	edit := &manifest.VersionEdit{NewGuards: u.Guards}
	u.tables(func(level int, f *base.FileMetadata) {
		edit.DeletedFiles = append(edit.DeletedFiles, manifest.DeletedFileEntry{Level: level, FileNum: f.FileNum})
	})
	if u.Move {
		// The LSM fast path for non-overlapping data that FLSM deliberately
		// forgoes (§4.5: sequential workloads). The file stays live.
		f := u.Merges[0].Files[0]
		edit.NewFiles = []manifest.NewFileEntry{{Level: u.Merges[0].Dst, Meta: *f}}
		if _, err := c.logAndInstall(edit); err != nil {
			return res, err
		}
		res.tables, res.bytesOut = 1, int64(f.Size)
		return res, nil
	}

	smallest := c.host.SmallestSnapshot()
	builders := make([]*OutputBuilder, 0, len(u.Merges))
	for i := range u.Merges {
		m := &u.Merges[i]
		ob := c.newOutputBuilder()
		builders = append(builders, ob)
		metas, err := c.merge(ob, m, smallest)
		if err != nil {
			for _, ob := range builders {
				ob.Abandon()
			}
			return unitResult{}, err
		}
		for _, meta := range metas {
			edit.NewFiles = append(edit.NewFiles, manifest.NewFileEntry{Level: m.Dst, Meta: *meta})
			res.bytesOut += int64(meta.Size)
		}
		res.tables += len(metas)
		if m.InPlace {
			res.inPlace++
		}
	}
	if err := c.installOutputs(edit, builders...); err != nil {
		return unitResult{}, err
	}
	for _, ob := range builders {
		metric.Merge(&res.compression, ob.CompressionStats())
	}
	return res, nil
}

// merge merge-sorts m's inputs into ob, cutting the stream into tables by
// m.Cut, and returns the tables written (§3.4: "the sstables of a given
// guard are merge-sorted and then partitioned, so that each child guard
// receives a new sstable that fits its key range").
//
// Range tombstones from the inputs drive covered-point elision in the
// compaction iterator and follow the same cuts: each output table receives
// the fragments clipped to the interval between its cuts — never wider, so
// tables stay disjoint and a later guard split can neither resurrect data
// the tombstone covered nor delete keys it never did. An interval that
// receives no surviving point but is spanned by a tombstone still emits a
// tombstone-only table, because the tombstone must keep masking older
// versions below. With m.Elide, tombstones every snapshot can see are
// dropped along with the points they cover.
func (c *Core) merge(ob *OutputBuilder, m *Merge, smallestSnapshot base.SeqNum) ([]*base.FileMetadata, error) {
	dropLE := base.SeqNum(0)
	if m.Elide {
		dropLE = smallestSnapshot
	}

	// Open each input once, collecting its range tombstones alongside its
	// merge iterator.
	var rd *rangedel.List
	iters := make([]iterator.Iterator, 0, len(m.Files)+len(m.Overlap))
	for _, files := range [2][]*base.FileMetadata{m.Files, m.Overlap} {
		for _, f := range files {
			r, err := c.tc.Find(f.FileNum, f.Size)
			if err != nil {
				for _, it := range iters {
					it.Close()
				}
				return nil, err
			}
			if f.NumRangeDels > 0 {
				if rd == nil {
					rd = &rangedel.List{}
				}
				for _, ts := range r.RangeDels().Raw() {
					rd.Add(ts)
				}
			}
			iters = append(iters, NewSequentialTableIter(r))
		}
	}
	ci := NewCompactionIter(iterator.NewMerging(base.InternalCompare, iters...), smallestSnapshot, m.Elide, rd)
	defer ci.Close()

	// cutAt finishes the open table at boundary hi (nil: the end of the
	// stream), attaching the surviving tombstone fragments clipped to
	// [previous boundary, hi). An interval with neither points nor
	// tombstones emits nothing. The clipped fragments alias both boundaries
	// until the writer's Finish runs inside Cut, so a boundary must not be
	// a buffer that is reused afterwards.
	var lo []byte
	cutAt := func(hi []byte) error {
		if !rd.Empty() {
			if err := ob.AddRangeDels(rd.Clipped(lo, hi, dropLE)); err != nil {
				return err
			}
		}
		lo = hi
		return ob.Cut()
	}

	keys := m.Cut.Keys
	var prevUkey []byte
	for ci.First(); ci.Valid(); ci.Next() {
		ukey := base.UserKey(ci.Key())
		for len(keys) > 0 && bytes.Compare(keys[0], ukey) <= 0 {
			if err := cutAt(keys[0]); err != nil {
				return nil, err
			}
			keys = keys[1:]
		}
		if m.Cut.Size > 0 {
			if ob.CurrentSize() >= m.Cut.Size && prevUkey != nil && !bytes.Equal(prevUkey, ukey) {
				if err := cutAt(append([]byte(nil), ukey...)); err != nil {
					return nil, err
				}
			}
			prevUkey = append(prevUkey[:0], ukey...)
		}
		if err := ob.Add(ci.Key(), ci.Value()); err != nil {
			return nil, err
		}
	}
	if err := ci.Error(); err != nil {
		return nil, err
	}
	// Close the open table's interval, then any remaining intervals spanned
	// only by tombstones.
	for _, k := range keys {
		if err := cutAt(k); err != nil {
			return nil, err
		}
	}
	if err := cutAt(nil); err != nil {
		return nil, err
	}
	return ob.Finish()
}

package treebase

import (
	"bytes"
	"fmt"

	"pebblesdb/internal/base"
	"pebblesdb/internal/rangedel"
)

// CheckInvariants verifies what the read path and the scheduler take on
// trust. From metadata alone: the structure of the current view
// (checkStructure) and the claims on it (checkClaims). Against the
// directory: the tables on disk (checkFiles), listed with the core's lock
// held. Against the tables themselves: the age order of every group
// (checkGroupOrder), which reads every table of every group of more than
// one — so the method belongs to tests and tools, not to a serving path.
func (c *Core) CheckInvariants() error {
	st, err := c.acquire()
	if err != nil {
		return err
	}
	c.mu.Lock()
	v := c.cur.view
	err = c.checkStructure(v)
	if err == nil {
		err = c.checkClaims(v)
	}
	if err == nil {
		err = c.checkFiles()
	}
	c.mu.Unlock()
	if err == nil {
		err = c.checkGroupOrder(st.view)
	}
	st.Release()
	return err
}

// checkFiles verifies the core's account of its tables against the
// directory, under mu: every table a held view lists is on disk and known
// to the core, and every table on disk is known to it.
func (c *Core) checkFiles() error {
	names, err := c.fs.List(c.dir)
	if err != nil {
		return err
	}
	onDisk := map[base.FileNum]bool{}
	for _, name := range names {
		if ft, fn, ok := base.ParseFilename(name); ok && ft == base.FileTypeTable {
			if _, known := c.tables[fn]; !known {
				return fmt.Errorf("files: table %d is on disk, but no held view lists it and no flush or unit writes it", fn)
			}
			onDisk[fn] = true
		}
	}
	for _, s := range c.states {
		c.walk(s.view, func(_ int, _ []byte, files []*base.FileMetadata) {
			for _, f := range files {
				if _, known := c.tables[f.FileNum]; (!known || !onDisk[f.FileNum]) && err == nil {
					err = fmt.Errorf("files: table %d of a held view: known %v, on disk %v", f.FileNum, known, onDisk[f.FileNum])
				}
			}
		})
	}
	return err
}

// checkStructure verifies what View promises of the levels below 0: the
// groups of a level are ordered and disjoint in user keys, with every table
// inside its group's interval — for FLSM no table crosses a guard, for
// leveled no two tables overlap; and Find and Span lead to each group from
// its own first and last key. That a guard of one level is a guard of the
// next (§3.2) is not checked, because it does not hold from one moment to
// the next: a level commits a guard when a unit next writes it and no table
// there straddles the key (§3.3), each level at its own time.
func (c *Core) checkStructure(v View) error {
	for lv := 1; lv < c.cfg.NumLevels; lv++ {
		// prev is the table of the groups so far that reaches furthest.
		var prev *base.FileMetadata
		var prevGuard []byte
		for i, n := 0, v.Groups(lv); i < n; i++ {
			guard, files := v.Group(lv, i)
			if guard != nil {
				if prevGuard != nil && bytes.Compare(prevGuard, guard) >= 0 {
					return fmt.Errorf("level %d: guard %q follows guard %q", lv, guard, prevGuard)
				}
				if prev != nil && !endsBefore(prev, guard) {
					return fmt.Errorf("level %d: table %s crosses guard %q", lv, prev, guard)
				}
				prevGuard = guard
			}
			if len(files) == 0 {
				continue
			}
			first, last := files[0], files[0]
			for _, f := range files {
				if guard != nil && bytes.Compare(f.SmallestUserKey(), guard) < 0 {
					return fmt.Errorf("level %d guard %q: table %s starts before its guard", lv, guard, f)
				}
				if prev != nil && !endsBefore(prev, f.SmallestUserKey()) {
					return fmt.Errorf("level %d: table %s of group %d overlaps table %s of an earlier group", lv, f, i, prev)
				}
				if bytes.Compare(f.SmallestUserKey(), first.SmallestUserKey()) < 0 {
					first = f
				}
				if !endsBefore(f, last.LargestUserKey()) {
					last = f
				}
			}
			prev = last
			// The group's first key, and its last unless that is the
			// exclusive end of a range tombstone, which the group does not
			// hold.
			b := base.Bounds{Lower: first.SmallestUserKey()}
			keys := [][]byte{b.Lower, last.LargestUserKey()}
			if last.LargestExclusive() {
				keys = keys[:1]
			}
			for _, k := range keys {
				if j, got := v.Find(lv, k); j != i || len(got) != len(files) || got[0] != files[0] {
					return fmt.Errorf("level %d: Find(%q) leads to group %d (%d tables), but group %d (%d tables) holds the key", lv, k, j, len(got), i, len(files))
				}
			}
			if bytes.Compare(b.Lower, last.LargestUserKey()) < 0 {
				b.Upper = last.LargestUserKey()
			}
			if lo, hi := v.Span(lv, b); i < lo || i >= hi {
				return fmt.Errorf("level %d: Span[%q, %q) = groups [%d, %d) leaves out group %d, which holds %q", lv, b.Lower, b.Upper, lo, hi, i, b.Lower)
			}
		}
	}
	return nil
}

// endsBefore reports whether every key f holds is below ukey.
func endsBefore(f *base.FileMetadata, ukey []byte) bool {
	c := bytes.Compare(f.LargestUserKey(), ukey)
	return c < 0 || c == 0 && f.LargestExclusive()
}

// checkClaims verifies the registry of what running units hold against the
// units and the view v, all read under mu: every running unit holds exactly
// the tables it reads, so no table is held by two and none while no unit
// runs; and a unit's tables are all in v or — deleted together by its own
// installed edit — all gone from it.
func (c *Core) checkClaims(v View) error {
	live := map[base.FileNum]bool{}
	c.walk(v, func(_ int, _ []byte, files []*base.FileMetadata) {
		for _, f := range files {
			live[f.FileNum] = true
		}
	})
	units := map[*Unit]bool{}
	for _, u := range c.claims.owner {
		units[u] = true
	}
	if len(units) != c.units {
		return fmt.Errorf("claims: %d tables held by %d units, but %d units are running", len(c.claims.owner), len(units), c.units)
	}
	tables, l0 := 0, 0
	for u := range units {
		present, all := 0, 0
		var err error
		u.tables(func(_ int, f *base.FileMetadata) {
			if c.claims.owner[f.FileNum] != u {
				err = fmt.Errorf("claims: table %s of a level-%d unit is held by another unit", f, u.Level)
			}
			if live[f.FileNum] {
				present++
			}
			all++
		})
		if err != nil {
			return err
		}
		if present != 0 && present != all {
			return fmt.Errorf("claims: a level-%d unit holds %d tables of which %d have left the view without it", u.Level, all, all-present)
		}
		tables += all
		if u.Level == 0 {
			l0++
		}
	}
	if tables != len(c.claims.owner) || l0 != c.claims.l0 {
		return fmt.Errorf("claims: %d tables held, %d level-0 units counted, but the running units read %d tables and %d of them source level 0", len(c.claims.owner), c.claims.l0, tables, l0)
	}
	return nil
}

// checkGroupOrder verifies the order View promises of a group's tables,
// oldest first: whatever a table holds of a user key — its versions and the
// range tombstones covering it — is at least as new as all that the tables
// before it hold of that key. Equal is a copy: a flush retried after its
// edit was installed but not persisted writes the same entries again.
func (c *Core) checkGroupOrder(v View) error {
	for lv := 1; lv < c.cfg.NumLevels; lv++ {
		for i, n := 0, v.Groups(lv); i < n; i++ {
			guard, files := v.Group(lv, i)
			if len(files) < 2 {
				continue
			}
			if err := c.checkOneGroupOrder(files); err != nil {
				return fmt.Errorf("level %d guard %q: %w", lv, guard, err)
			}
		}
	}
	return nil
}

func (c *Core) checkOneGroupOrder(files []*base.FileMetadata) error {
	// What the tables walked so far hold: per user key its newest version
	// and the table holding it, and every range tombstone.
	type version struct {
		seq  base.SeqNum
		file base.FileNum
	}
	newest := map[string]version{}
	var dels rangedel.List
	for _, f := range files {
		r, err := c.tc.Find(f.FileNum, f.Size)
		if err != nil {
			return err
		}
		here := map[string]base.SeqNum{}
		tombstones := r.RangeDels().Raw()
		it := NewSequentialTableIter(r) // Close returns the reference
		var bad error
		for it.First(); it.Valid() && bad == nil; it.Next() {
			ukey, seq, _, ok := base.DecodeInternalKey(it.Key())
			old, seen := newest[string(ukey)]
			cov := dels.CoverSeq(ukey, base.MaxSeqNum)
			switch {
			case !ok:
				bad = fmt.Errorf("table %d: undecodable key %x", f.FileNum, it.Key())
			case seen && seq < old.seq:
				bad = fmt.Errorf("table %d holds %q at sequence %d behind table %d, which holds it at %d",
					f.FileNum, ukey, seq, old.file, old.seq)
			case seq < cov:
				bad = fmt.Errorf("table %d holds %q at sequence %d behind a table with a range tombstone over it at %d",
					f.FileNum, ukey, seq, cov)
			default:
				// A table lists a key's versions newest first.
				if _, in := here[string(ukey)]; !in {
					here[string(ukey)] = seq
				}
			}
		}
		if err := it.Close(); bad == nil {
			bad = err
		}
		if bad != nil {
			return bad
		}
		for _, ts := range tombstones {
			for k, old := range newest {
				if ts.Seq < old.seq && bytes.Compare(ts.Start, []byte(k)) <= 0 && bytes.Compare([]byte(k), ts.End) < 0 {
					return fmt.Errorf("table %d holds a range tombstone [%q, %q) at sequence %d behind table %d, which holds %q at %d",
						f.FileNum, ts.Start, ts.End, ts.Seq, old.file, k, old.seq)
				}
			}
			dels.Add(ts)
		}
		for k, seq := range here {
			newest[k] = version{seq, f.FileNum}
		}
	}
	return nil
}

package treebase

import (
	"bytes"
	"fmt"

	"pebblesdb/internal/base"
	"pebblesdb/internal/rangedel"
)

// CheckInvariants verifies against the tables themselves what the read
// path takes on trust from the current view; so far that is the age order
// of every group (checkGroupOrder). It reads every table of every group of
// more than one, so it belongs to tests and tools, not to a serving path.
func (c *Core) CheckInvariants() error {
	return c.checkGroupOrder(c.pin())
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

package treebase

import (
	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/rangedel"
)

// Host is the engine-side contract the trees depend on: snapshot
// visibility for compaction GC, the committed sequence number that tells
// consecutive reads apart, and the one compaction trigger only a read can
// pull. Table files are the core's own: it deletes them (State).
type Host interface {
	// SmallestSnapshot reports the oldest sequence number any live
	// snapshot can observe; compactions must retain the newest version at
	// or below it for every key.
	SmallestSnapshot() base.SeqNum
	// CommittedSeq reports the last committed sequence number. The seek
	// hooks read it when a read is charged: two charges that see the same
	// number had no commit between them, and only such consecutive reads
	// count against a budget (§4.2). It is called on the reading goroutine
	// with no lock of the core held and must not block.
	CommittedSeq() base.SeqNum
	// ScheduleCompaction hears that a read used up a seek budget and so
	// made a unit claimable (the seek hooks, SeekCharger and MissCharger):
	// under read-only traffic no flush or finished unit would look for it.
	// It is called on the reading goroutine, at most once per budget used
	// up, with no lock of the core held, so the host may take its own
	// locks, which order before the core's. It must not wait for a unit:
	// it only starts a worker.
	ScheduleCompaction()
}

// CompactionIter filters a merged input stream during compaction:
//   - versions older than the newest version visible at the smallest
//     snapshot are dropped ("keys marked for deletion are garbage collected
//     during compaction", §4.3);
//   - deletion tombstones are elided when compacting into the last level,
//     where nothing older can hide beneath them;
//   - point entries covered by an input range tombstone that every live
//     snapshot can see (tombstone seq <= smallest snapshot, entry seq below
//     the tombstone's) are dropped at any level: the covering tombstone
//     either travels to the output with them or the output is the last
//     level, so no reader can lose the deletion.
type CompactionIter struct {
	in               iterator.Iterator
	smallestSnapshot base.SeqNum
	elideTombstones  bool
	rangeDels        *rangedel.List // may be nil

	curUkey     []byte
	seenBelowSS bool // emitted (or elided) the newest <= snapshot version of curUkey

	key   []byte
	value []byte
	valid bool
}

// NewCompactionIter wraps in (which must yield internal keys in order).
// rangeDels, when non-nil, holds the compaction inputs' range tombstones
// and enables covered-point elision.
func NewCompactionIter(in iterator.Iterator, smallestSnapshot base.SeqNum, elideTombstones bool, rangeDels *rangedel.List) *CompactionIter {
	if rangeDels.Empty() {
		rangeDels = nil
	}
	return &CompactionIter{in: in, smallestSnapshot: smallestSnapshot, elideTombstones: elideTombstones, rangeDels: rangeDels}
}

// First positions at the first surviving entry.
func (c *CompactionIter) First() {
	c.in.First()
	c.curUkey = nil
	c.seenBelowSS = false
	c.findNext()
}

// Next advances to the next surviving entry.
func (c *CompactionIter) Next() {
	c.in.Next()
	c.findNext()
}

func (c *CompactionIter) findNext() {
	c.valid = false
	for c.in.Valid() {
		ikey := c.in.Key()
		ukey, seq, kind, ok := base.DecodeInternalKey(ikey)
		if !ok {
			// Malformed keys cannot occur in tables we wrote; skip
			// defensively.
			c.in.Next()
			continue
		}
		if c.curUkey == nil || string(ukey) != string(c.curUkey) {
			c.curUkey = append(c.curUkey[:0], ukey...)
			c.seenBelowSS = false
		} else if c.seenBelowSS {
			// An older version of a key whose newest <= snapshot version
			// was already handled: shadowed for every possible reader.
			c.in.Next()
			continue
		}
		if seq <= c.smallestSnapshot {
			c.seenBelowSS = true
			if kind == base.KindDelete && c.elideTombstones {
				// The tombstone is the newest visible version and nothing
				// can live below the output level: drop it and everything
				// older.
				c.in.Next()
				continue
			}
			if c.rangeDels != nil && c.rangeDels.CoverSeq(ukey, c.smallestSnapshot) > seq {
				// Covered by a range tombstone no snapshot can miss: every
				// reader that could see this version sees the deletion
				// instead. Older versions are shadowed via seenBelowSS.
				c.in.Next()
				continue
			}
		}
		c.key = ikey
		c.value = c.in.Value()
		c.valid = true
		return
	}
}

// Valid reports whether the iterator is positioned on a surviving entry.
func (c *CompactionIter) Valid() bool { return c.valid }

// Key returns the current internal key.
func (c *CompactionIter) Key() []byte { return c.key }

// Value returns the current value.
func (c *CompactionIter) Value() []byte { return c.value }

// Error returns the input's error.
func (c *CompactionIter) Error() error { return c.in.Error() }

// Close closes the input.
func (c *CompactionIter) Close() error { return c.in.Close() }

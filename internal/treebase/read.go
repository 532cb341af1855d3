package treebase

import (
	"bytes"
	"sync/atomic"

	"pebblesdb/internal/base"
	"pebblesdb/internal/bloom"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
)

// Get returns the newest visible version of ukey at seq — the read path of
// §3.4, which a leveled tree shares with groups of one table: level 0
// newest table first, then per level the one group that can hold the key,
// its tables newest first. Data only moves down the tree and a group keeps
// its tables in age order (View), so the first visible point entry the
// descent meets is the newest one: everything in the tables behind it and
// in the levels below is older. Range tombstones fold in on the way: every
// table consulted also reports the newest visible tombstone covering the
// key, from its resident list, and the comparison at the first hit decides
// the read. A key covered in a group that holds no visible version of it
// returns not-found without descending further. The read then reports what
// it cost to the layout's seek hook (charge): the first group below level
// 0 of which it consulted two or more tables (SeekCharger), or the first
// table it searched in vain (MissCharger).
//
// latest, when non-nil, is the engine's committed-sequence counter: the
// view is pinned first and only then is the read sequence loaded from it,
// so a concurrent compaction can never collapse every version <= seq out of
// the probed view (a version is only dropped when a newer, also-committed
// one shadows it — which the later load then makes visible). Snapshot
// reads pass latest=nil: SmallestSnapshot protects them from collapse. s,
// when non-nil, supplies the reusable point-read working set, and a
// steady-state Get then allocates nothing, and the returned value aliases
// the block s holds: it must be copied before s probes again or is
// released. A nil s borrows a scratch from the shared pool for the call and
// returns a copy.
func (c *Core) Get(ukey []byte, seq base.SeqNum, latest *atomic.Uint64, s *sstable.GetScratch) (value []byte, found bool, err error) {
	if s == nil {
		s = sstable.AcquireGetScratch()
		defer func() {
			value = bytes.Clone(value)
			sstable.ReleaseGetScratch(s)
		}()
	}
	st, err := c.acquire()
	if err != nil {
		return nil, false, err
	}
	v := st.view
	if latest != nil {
		seq = base.SeqNum(latest.Load())
	}
	s.SearchKey = base.MakeSearchKey(s.SearchKey[:0], ukey, seq)
	s.KeyHash = bloom.Hash(ukey)

	d := descent{c: c, ukey: ukey, seq: seq, s: s}
	value, found, err = d.run(v)
	// The value aliases the block s holds, not the table: the table may go.
	st.Release()
	switch {
	case d.seekLevel > 0 && c.seeks != nil && c.cfg.SeekCompactionThreshold > 0:
		guard, _ := v.Group(d.seekLevel, d.seekGroup)
		c.charge(d.seekLevel, guard, nil)
	case d.miss != nil && c.chargesMiss(d.missLevel):
		c.charge(d.missLevel, nil, d.miss)
	}
	return value, found, err
}

// descent is the state of one Get as it moves down the tree.
type descent struct {
	c    *Core
	ukey []byte
	seq  base.SeqNum
	s    *sstable.GetScratch
	// cov is the newest visible range tombstone covering ukey so far.
	cov base.SeqNum
	// miss is the first table whose blocks were searched without finding
	// ukey, at missLevel: the read's input to the layout's MissCharger.
	miss      *base.FileMetadata
	missLevel int
	// seekGroup is the first group below level 0 of which the read
	// consulted more than one table, at seekLevel (0: none): the read's
	// input to the layout's SeekCharger.
	seekLevel, seekGroup int
}

func (d *descent) run(v View) (value []byte, found bool, err error) {
	// Flush order guarantees newer level-0 tables hold newer versions, so
	// each is a group of its own and the first visible hit wins.
	l0 := v.L0()
	for i := range l0 {
		if value, found, done, err := d.probe(0, i, l0[i:i+1]); done {
			return value, found, err
		}
	}
	for lv := 1; lv < d.c.cfg.NumLevels; lv++ {
		i, files := v.Find(lv, d.ukey)
		if len(files) == 0 {
			continue // no group holds the key, or an empty guard (§3.3)
		}
		if value, found, done, err := d.probe(lv, i, files); done {
			return value, found, err
		}
	}
	return nil, false, nil
}

// probe searches group i of level, newest table first, and reports done
// once the read is decided: by the first visible point entry — the tables
// behind it hold only older versions and older tombstones, so they are not
// consulted, neither bloom filter nor block — against the newest covering
// tombstone seen so far, or by such a tombstone alone when the group holds
// no visible version. The value aliases the block the scratch holds. A
// table is consulted when its key range holds ukey, whatever its bloom
// filter says; a read that consults a second table of one group costs what
// a compacted group would not, and is noted for the seek budget.
func (d *descent) probe(level, i int, files []*base.FileMetadata) (value []byte, found, done bool, err error) {
	consulted := 0
	for j := len(files) - 1; j >= 0; j-- {
		f := files[j]
		if !userKeyInRange(d.ukey, f) {
			continue
		}
		if consulted++; consulted == 2 && level > 0 && d.seekLevel == 0 {
			d.seekLevel, d.seekGroup = level, i
		}
		val, fseq, kind, cov, hit, probed, err := d.c.probeFile(f, d.ukey, d.seq, d.s)
		if err != nil {
			return nil, false, true, err
		}
		if cov > d.cov {
			d.cov = cov
		}
		if hit {
			if d.cov > fseq {
				return nil, false, true, nil
			}
			return val, kind == base.KindSet, true, nil
		}
		if probed && d.miss == nil {
			d.miss, d.missLevel = f, level
		}
	}
	// Deeper levels hold only lower sequence numbers: a tombstone wins over
	// anything still unseen.
	return nil, false, d.cov > 0, nil
}

// probeFile checks one sstable whose key range holds ukey for the newest
// visible point entry of ukey and the newest visible range tombstone
// covering it (cov), in a single table-cache round-trip. File bounds include
// tombstone spans, so the caller's range check cannot reject a file whose
// tombstones cover ukey; the resident tombstone list answers with one
// binary search, no block IO. probed reports whether the table's blocks
// were searched (the bloom filter passed or was absent).
func (c *Core) probeFile(f *base.FileMetadata, ukey []byte, seq base.SeqNum, s *sstable.GetScratch) (val []byte, fseq base.SeqNum, kind base.Kind, cov base.SeqNum, hit, probed bool, err error) {
	r, err := c.tc.Find(f.FileNum, f.Size)
	if err != nil {
		return nil, 0, 0, 0, false, false, err
	}
	if f.RangeDelSpanContains(ukey) {
		cov = r.RangeDels().CoverSeq(ukey, seq)
	}
	if !r.MayContainHash(s.KeyHash) {
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

// chargesMiss reports whether a budget counts a Get's first miss at level,
// decided without the lock: see MissCharger for the exempt levels.
func (c *Core) chargesMiss(level int) bool {
	return c.misses != nil && c.cfg.SeekCompactionThreshold > 0 && level > 0 && level < c.cfg.NumLevels-1
}

// charge counts a read against the budget its layout keeps for it: the
// group guard of level (SeekCharger), at the committed sequence number the
// host reports now, so a guard's budget runs out only after its threshold
// of charges with no commit between any two; or, when miss is non-nil, the
// table miss (MissCharger). The charge that uses up a budget asks the host
// to run the unit it made.
func (c *Core) charge(level int, guard []byte, miss *base.FileMetadata) {
	var spent, restarted bool
	if miss != nil {
		c.mu.Lock()
		spent = c.misses.ChargeMiss(level, miss)
	} else {
		seq := c.host.CommittedSeq()
		c.mu.Lock()
		spent, restarted = c.seeks.ChargeSeek(level, guard, seq)
	}
	if restarted {
		c.metrics.SeekRestarts++
	}
	c.mu.Unlock()
	if spent {
		c.host.ScheduleCompaction()
	}
}

// NewIters returns the current state, held — the caller releases it once
// it has closed the iterators — and the point iterators of its view — one
// per level-0 table, one level iterator per populated level — appended to
// dst (which pooled callers recycle), plus every range tombstone held by a table
// overlapping the request's bounds; the engine merges those with the
// memtables' into one visibility mask. Groups and tables outside the bounds
// are pruned before any table is opened, and with a prefix so are tables
// whose prefix bloom filter rules it out; tombstone collection ignores the
// filter, so a skipped table's range deletions are still honored. File
// bounds include tombstone spans, so bounds pruning cannot lose a tombstone
// that could mask an in-bounds key. The tables that carry tombstones come
// from the list kept beside the view, not from a walk of it.
func (c *Core) NewIters(req IterRequest, dst []iterator.Iterator) (*State, []iterator.Iterator, []rangedel.Tombstone, error) {
	st, err := c.acquire()
	if err != nil {
		return nil, nil, nil, err
	}
	v := st.view
	iters := dst
	for _, f := range v.L0() {
		if !req.Bounds.Overlaps(f) {
			continue
		}
		it, err := c.openIter(&req, f)
		if err != nil {
			return closeIters(st, iters, err)
		}
		if it != nil {
			iters = append(iters, it)
		}
	}
	for lv := 1; lv < c.cfg.NumLevels; lv++ {
		lo, hi := v.Span(lv, req.Bounds)
		if lo == hi {
			continue
		}
		parallel := c.cfg.ParallelSeeks && lv == c.cfg.NumLevels-1
		iters = append(iters, newLevelIter(c, v, lv, lo, hi, parallel, req))
	}
	var rds []rangedel.Tombstone
	for _, f := range st.rangeDels {
		if !req.Bounds.Overlaps(f) {
			continue
		}
		// The resident list answers: no block IO here.
		r, err := c.tc.Find(f.FileNum, f.Size)
		if err != nil {
			return closeIters(st, iters, err)
		}
		rds = append(rds, r.RangeDels().Raw()...)
		r.Unref()
	}
	return st, iters, rds, nil
}

// closeIters is NewIters' error return: the iterators opened so far are
// closed, then the state is released.
func closeIters(st *State, iters []iterator.Iterator, err error) (*State, []iterator.Iterator, []rangedel.Tombstone, error) {
	for _, it := range iters {
		it.Close()
	}
	st.Release()
	return nil, nil, nil, err
}

// openIter opens a pooled iterator over f for req, or returns nil when f's
// prefix bloom filter rules the request's prefix out — before any block is
// read.
func (c *Core) openIter(req *IterRequest, f *base.FileMetadata) (iterator.Iterator, error) {
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

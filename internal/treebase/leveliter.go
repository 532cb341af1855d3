package treebase

import (
	"sync"

	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
)

// levelIter iterates one level of a view in key order, forward or backward,
// by concatenating its groups: they are disjoint in user keys (§3.1), so no
// merge is needed across them. Within a group of more than one table (an
// FLSM guard, whose sstables may overlap) a merging iterator combines the
// tables; a group of one (every leveled group) is its table iterator.
// Reverse iteration positions every table of a group at its bound and
// drains groups from the end of the level.
//
// The iterator is built for reuse across seeks: the merging iterator and
// kids slice are embedded and recycled, table iterators come from the
// shared pool, and re-seeking into the already-open group skips the
// close/reopen cycle entirely — the steady state of a warm scan loop.
// It is itself pooled: Close hands it back, and the merging heap and the
// kids slice keep their capacity for the next iterator, so a fresh one
// opens groups and builds heaps without allocating.
// Tables outside the request's bounds are never opened, nor, when the
// request carries a prefix, tables whose prefix bloom filter rules it out.
type levelIter struct {
	c     *Core
	v     View
	level int
	// lo and hi bound the groups that can hold a key within the request's
	// bounds; idx is the open group, lo-1 or hi once the level is exhausted.
	lo, hi, idx int
	// cur iterates the open group: kids[0], &m or &empty. guard is the
	// group's guard key and tables how many of its tables lie within the
	// bounds.
	cur      iterator.Iterator
	guard    []byte
	tables   int
	parallel bool
	err      error
	req      IterRequest
	m        iterator.Merging
	kids     []iterator.Iterator
	empty    iterator.Empty
}

var levelIterPool = sync.Pool{New: func() any { return new(levelIter) }}

// newLevelIter returns an iterator over groups [lo, hi) of v's level. Close
// must be called exactly once: it returns the iterator to the pool.
func newLevelIter(c *Core, v View, level, lo, hi int, parallel bool, req IterRequest) *levelIter {
	l := levelIterPool.Get().(*levelIter)
	l.c, l.v, l.level, l.lo, l.hi, l.idx, l.parallel, l.req = c, v, level, lo, hi, lo-1, parallel, req
	return l
}

// fanOutReadNanos is the table-read time above which a seek into several
// tables positions them on goroutines of their own (§4.2): an order of
// magnitude over a goroutine hand-off. Below it — an in-memory filesystem
// reads a block in about a microsecond — "the overhead of using multiple
// threads is higher than the benefit", as the paper says of cached data.
const fanOutReadNanos = 20_000

// closeCur releases the open group: every pooled table iterator goes back
// to the pool, the kids slice keeps its capacity for the next group.
func (l *levelIter) closeCur() {
	for _, k := range l.kids {
		if err := k.Close(); err != nil && l.err == nil {
			l.err = err
		}
	}
	l.kids = l.kids[:0]
	l.cur = nil
}

// openGroup builds the iterator over group i's tables without positioning
// it; returns false past either end of the level or on error.
func (l *levelIter) openGroup(i int) bool {
	l.closeCur()
	if i < l.lo || i >= l.hi {
		l.idx = max(l.lo-1, min(i, l.hi))
		return false
	}
	l.idx = i
	var files []*base.FileMetadata
	l.guard, files = l.v.Group(l.level, i)
	l.tables = 0
	for _, f := range files {
		if !l.req.Bounds.Overlaps(f) {
			continue
		}
		l.tables++
		it, err := l.c.openIter(&l.req, f)
		if err != nil {
			l.err = err
			l.closeCur()
			return false
		}
		if it != nil {
			l.kids = append(l.kids, it)
		}
	}
	switch len(l.kids) {
	case 0:
		l.empty = iterator.Empty{}
		l.cur = &l.empty
	case 1:
		l.cur = l.kids[0]
	default:
		l.m.Init(base.InternalCompare, l.kids)
		l.cur = &l.m
	}
	return true
}

// seek opens the group a seek to target lands in — reusing it when already
// open — positions it, and charges the seek when that took more than one
// table (Core.charge). A backward seek past the last group starts from the
// last. Parallel seeks (§4.2): position the sstable iterators of the group
// side by side, all but one on goroutines of their own, then assemble the
// heap. That pays only when the tables are likely uncached and their reads
// wait, so the core enables it for the last level only and the seek fans
// out only while table reads are measured slow.
func (l *levelIter) seek(target []byte, reverse bool) bool {
	i, _ := l.v.Find(l.level, base.UserKey(target))
	i = max(i, l.lo)
	if reverse {
		i = min(i, l.hi-1)
	}
	if (i != l.idx || l.cur == nil) && !l.openGroup(i) {
		return false
	}
	if l.tables > 1 && l.c.seeks != nil && l.c.cfg.SeekCompactionThreshold > 0 {
		l.c.charge(l.level, l.guard, nil)
	}
	if l.parallel && len(l.kids) > 1 && l.c.tc.ReadNanos() > fanOutReadNanos {
		l.fanOut(target, reverse)
	} else {
		position(l.cur, target, reverse)
	}
	return true
}

func position(k iterator.Iterator, target []byte, reverse bool) {
	if reverse {
		k.SeekLT(target)
	} else {
		k.SeekGE(target)
	}
}

// fanOut positions every table of the open group at once — the seeking
// goroutine takes one, the others get a goroutine each — and assembles the
// heap from where they stand.
func (l *levelIter) fanOut(target []byte, reverse bool) {
	l.req.CountFanOut()
	var wg sync.WaitGroup
	wg.Add(len(l.kids) - 1)
	for _, k := range l.kids[1:] {
		go func() {
			defer wg.Done()
			position(k, target, reverse)
		}()
	}
	position(l.kids[0], target, reverse)
	wg.Wait()
	if reverse {
		l.m.InitPositionedReverse()
	} else {
		l.m.InitPositioned()
	}
}

// SeekGE positions at the first entry >= target (an internal key).
func (l *levelIter) SeekGE(target []byte) {
	if l.err == nil && l.seek(target, false) {
		l.skipEmpty()
	}
}

// SeekLT positions at the last entry < target (an internal key): it lives
// in the group a seek to target lands in or in an earlier one.
func (l *levelIter) SeekLT(target []byte) {
	if l.err == nil && l.seek(target, true) {
		l.skipEmptyBackward()
	}
}

// First positions at the level's first entry.
func (l *levelIter) First() {
	if l.err != nil || (l.idx != l.lo || l.cur == nil) && !l.openGroup(l.lo) {
		return
	}
	l.cur.First()
	l.skipEmpty()
}

// Last positions at the level's last entry.
func (l *levelIter) Last() {
	if l.err != nil || (l.idx != l.hi-1 || l.cur == nil) && !l.openGroup(l.hi-1) {
		return
	}
	l.cur.Last()
	l.skipEmptyBackward()
}

// Next advances, crossing group boundaries as needed.
func (l *levelIter) Next() {
	if l.cur == nil || l.err != nil {
		return
	}
	l.cur.Next()
	l.skipEmpty()
}

// Prev moves back, crossing group boundaries as needed.
func (l *levelIter) Prev() {
	if l.cur == nil || l.err != nil {
		return
	}
	l.cur.Prev()
	l.skipEmptyBackward()
}

func (l *levelIter) skipEmpty() {
	for l.cur != nil && !l.cur.Valid() {
		if err := l.cur.Error(); err != nil {
			l.err = err
			return
		}
		if !l.openGroup(l.idx + 1) {
			return
		}
		l.cur.First()
	}
}

func (l *levelIter) skipEmptyBackward() {
	for l.cur != nil && !l.cur.Valid() {
		if err := l.cur.Error(); err != nil {
			l.err = err
			return
		}
		if !l.openGroup(l.idx - 1) {
			return
		}
		l.cur.Last()
	}
}

func (l *levelIter) Valid() bool {
	return l.err == nil && l.cur != nil && l.cur.Valid()
}

func (l *levelIter) Key() []byte   { return l.cur.Key() }
func (l *levelIter) Value() []byte { return l.cur.Value() }

func (l *levelIter) Error() error { return l.err }

// Close releases the open group and returns the iterator to the pool; only
// the capacity of the heap and of the kids slice goes with it.
func (l *levelIter) Close() error {
	l.closeCur()
	err := l.err
	l.m.Init(nil, nil)
	*l = levelIter{m: l.m, kids: l.kids}
	levelIterPool.Put(l)
	return err
}

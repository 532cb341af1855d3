package leveled

import (
	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/treebase"
)

// levelIter concatenates the (disjoint, sorted) sstables of one level into
// a single bidirectional iterator, opening tables lazily through the table
// cache. Table iterators come from the shared pool, re-seeking into the
// already-open file skips the close/reopen cycle, and when the request
// carries a prefix, files whose prefix bloom filter rules the prefix out
// are passed over (stood in for by an empty iterator, so the skipEmpty
// machinery advances across them) without any block IO.
type levelIter struct {
	core  *treebase.Core
	files []*base.FileMetadata
	idx   int
	cur   iterator.Iterator
	err   error
	req   treebase.IterRequest
	empty iterator.Empty
}

func newLevelIter(core *treebase.Core, files []*base.FileMetadata, req treebase.IterRequest) *levelIter {
	return &levelIter{core: core, files: files, idx: -1, req: req}
}

func (l *levelIter) openFile(i int) bool {
	if l.cur != nil {
		if err := l.cur.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.cur = nil
	}
	if i < 0 {
		l.idx = -1
		return false
	}
	if i >= len(l.files) {
		l.idx = len(l.files)
		return false
	}
	it, err := l.core.OpenIter(&l.req, l.files[i])
	if err != nil {
		l.err = err
		return false
	}
	l.idx = i
	if it == nil {
		l.empty = iterator.Empty{}
		it = &l.empty
	}
	l.cur = it
	return true
}

// seekFile opens file i unless it is already the open file — the steady
// state of a warm scan loop re-seeking within one table.
func (l *levelIter) seekFile(i int) bool {
	if i == l.idx && l.cur != nil {
		return true
	}
	return l.openFile(i)
}

// SeekGE positions at the first entry >= target.
func (l *levelIter) SeekGE(target []byte) {
	if l.err != nil {
		return
	}
	// Find the first file whose largest key is >= target.
	lo, hi := 0, len(l.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if base.InternalCompare(l.files[mid].Largest, target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if !l.seekFile(lo) {
		return
	}
	l.cur.SeekGE(target)
	l.skipEmpty()
}

// SeekLT positions at the last entry < target.
func (l *levelIter) SeekLT(target []byte) {
	if l.err != nil {
		return
	}
	// Find the first file whose largest key is >= target; it is the only
	// file that can straddle target. Everything before it is entirely
	// smaller.
	lo, hi := 0, len(l.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if base.InternalCompare(l.files[mid].Largest, target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(l.files) {
		l.Last()
		return
	}
	if !l.seekFile(lo) {
		return
	}
	l.cur.SeekLT(target)
	l.skipEmptyBackward()
}

// First positions at the level's first entry.
func (l *levelIter) First() {
	if l.err != nil {
		return
	}
	if !l.seekFile(0) {
		return
	}
	l.cur.First()
	l.skipEmpty()
}

// Last positions at the level's last entry.
func (l *levelIter) Last() {
	if l.err != nil {
		return
	}
	if !l.seekFile(len(l.files) - 1) {
		return
	}
	l.cur.Last()
	l.skipEmptyBackward()
}

// Next advances, moving to the next file as needed.
func (l *levelIter) Next() {
	if l.cur == nil || l.err != nil {
		return
	}
	l.cur.Next()
	l.skipEmpty()
}

// Prev moves back, crossing file boundaries as needed.
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
		if !l.openFile(l.idx + 1) {
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
		if !l.openFile(l.idx - 1) {
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

func (l *levelIter) Close() error {
	if l.cur != nil {
		if err := l.cur.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.cur = nil
	}
	return l.err
}

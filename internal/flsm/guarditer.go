package flsm

import (
	"sync"

	"pebblesdb/internal/base"
	"pebblesdb/internal/guard"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/treebase"
)

// guardLevelIter iterates one FLSM level in key order, forward or backward:
// the sentinel's files, then each guard's files. Within a guard (where
// sstables may overlap) a merging iterator combines the tables; across
// guards plain concatenation suffices because guard intervals are disjoint
// (§3.1). Reverse iteration positions every sstable within a guard at its
// bound (Merging.SeekLT / Last) and drains guards from the end of the
// level.
//
// The iterator is built for reuse across seeks: the merging iterator and
// kids slice are embedded and recycled, table iterators come from the
// shared pool, and re-seeking into the already-open group skips the
// close/reopen cycle entirely — the steady state of a warm scan loop. When
// the request carries a prefix, tables whose prefix bloom filter rules the
// prefix out are skipped before any block is read.
type guardLevelIter struct {
	l        *layout
	level    int
	groups   []guard.Guard // sentinel (Key=nil) followed by the guards
	idx      int
	cur      iterator.Iterator // &g.m or &g.empty while a group is open
	parallel bool
	err      error
	req      treebase.IterRequest
	m        iterator.Merging
	kids     []iterator.Iterator
	empty    iterator.Empty
}

// newGuardLevelIter builds the level iterator, pruning files outside
// bounds before any table is opened. Guards left with no files are dropped
// (except the sentinel slot, which anchors group indexing); FindGuard on
// the thinned guard list still lands scans on the correct remaining group
// because every file lies within its own guard interval.
func newGuardLevelIter(l *layout, level int, gl *guardedLevel, parallel bool, req treebase.IterRequest) *guardLevelIter {
	bounds := req.Bounds
	groups := make([]guard.Guard, 0, len(gl.guards)+1)
	groups = append(groups, guard.Guard{Files: bounds.FilterFiles(gl.sentinel)})
	for i := range gl.guards {
		files := bounds.FilterFiles(gl.guards[i].Files)
		if len(files) == 0 && !bounds.Unbounded() {
			continue
		}
		groups = append(groups, guard.Guard{Key: gl.guards[i].Key, Files: files})
	}
	return &guardLevelIter{l: l, level: level, groups: groups, idx: -1, parallel: parallel, req: req}
}

// closeCur releases the open group: every pooled table iterator goes back
// to the pool, the kids slice keeps its capacity for the next group.
func (g *guardLevelIter) closeCur() {
	for _, k := range g.kids {
		if err := k.Close(); err != nil && g.err == nil {
			g.err = err
		}
	}
	g.kids = g.kids[:0]
	g.cur = nil
}

// openGroup builds the merged iterator over group i's files without
// positioning it; returns false past either end of the level or on error.
func (g *guardLevelIter) openGroup(i int) bool {
	g.closeCur()
	if i < 0 {
		g.idx = -1
		return false
	}
	if i >= len(g.groups) {
		g.idx = len(g.groups)
		return false
	}
	g.idx = i
	for _, f := range g.groups[i].Files {
		it, err := g.l.core.OpenIter(&g.req, f)
		if err != nil {
			g.err = err
			g.closeCur()
			return false
		}
		if it != nil {
			g.kids = append(g.kids, it)
		}
	}
	if len(g.kids) == 0 {
		g.empty = iterator.Empty{}
		g.cur = &g.empty
		return true
	}
	g.m.Init(base.InternalCompare, g.kids)
	g.cur = &g.m
	return true
}

// seekGroup opens group i (reusing it when already open — the steady state
// of a warm scan loop re-seeking within one guard) and positions it at
// target. Parallel seeks (§4.2): position each sstable iterator on its own
// goroutine, then assemble the heap. Only profitable when the tables are
// likely uncached — the tree enables it for the last level only. reverse
// selects SeekLT.
func (g *guardLevelIter) seekGroup(i int, target []byte, reverse bool) bool {
	if i != g.idx || g.cur == nil {
		if !g.openGroup(i) {
			return false
		}
	}
	if g.cur != &g.m { // empty group
		return true
	}
	m := &g.m
	if g.parallel && len(g.kids) > 1 {
		var wg sync.WaitGroup
		for ki := 0; ki < len(g.kids); ki++ {
			wg.Add(1)
			go func(ki int) {
				defer wg.Done()
				if reverse {
					m.Kid(ki).SeekLT(target)
				} else {
					m.Kid(ki).SeekGE(target)
				}
			}(ki)
		}
		wg.Wait()
		if reverse {
			m.InitPositionedReverse()
		} else {
			m.InitPositioned()
		}
		return true
	}
	if reverse {
		m.SeekLT(target)
	} else {
		m.SeekGE(target)
	}
	return true
}

// findGroup locates the group whose guard interval contains ukey and
// charges its seek budget.
func (g *guardLevelIter) findGroup(ukey []byte) int {
	// groups[0] is the sentinel; guards start at index 1.
	gi := guard.FindGuard(g.groups[1:], ukey) + 1
	if gi >= 1 {
		g.l.recordSeek(g.level, g.groups[gi].Key, len(g.groups[gi].Files))
	} else {
		gi = 0
		g.l.recordSeek(g.level, nil, len(g.groups[0].Files))
	}
	return gi
}

// SeekGE positions at the first entry >= target (an internal key).
func (g *guardLevelIter) SeekGE(target []byte) {
	if g.err != nil {
		return
	}
	if !g.seekGroup(g.findGroup(base.UserKey(target)), target, false) {
		return
	}
	g.skipEmpty()
}

// SeekLT positions at the last entry < target (an internal key). Entries
// below target live in the guard containing target's user key or in
// earlier guards.
func (g *guardLevelIter) SeekLT(target []byte) {
	if g.err != nil {
		return
	}
	if !g.seekGroup(g.findGroup(base.UserKey(target)), target, true) {
		return
	}
	g.skipEmptyBackward()
}

// First positions at the level's first entry.
func (g *guardLevelIter) First() {
	if g.err != nil {
		return
	}
	if g.idx != 0 || g.cur == nil {
		if !g.openGroup(0) {
			return
		}
	}
	g.cur.First()
	g.skipEmpty()
}

// Last positions at the level's last entry.
func (g *guardLevelIter) Last() {
	if g.err != nil {
		return
	}
	last := len(g.groups) - 1
	if g.idx != last || g.cur == nil {
		if !g.openGroup(last) {
			return
		}
	}
	g.cur.Last()
	g.skipEmptyBackward()
}

// Next advances, crossing guard boundaries as needed.
func (g *guardLevelIter) Next() {
	if g.cur == nil || g.err != nil {
		return
	}
	g.cur.Next()
	g.skipEmpty()
}

// Prev moves back, crossing guard boundaries as needed.
func (g *guardLevelIter) Prev() {
	if g.cur == nil || g.err != nil {
		return
	}
	g.cur.Prev()
	g.skipEmptyBackward()
}

func (g *guardLevelIter) skipEmpty() {
	for g.cur != nil && !g.cur.Valid() {
		if err := g.cur.Error(); err != nil {
			g.err = err
			return
		}
		if !g.openGroup(g.idx + 1) {
			return
		}
		g.cur.First()
	}
}

func (g *guardLevelIter) skipEmptyBackward() {
	for g.cur != nil && !g.cur.Valid() {
		if err := g.cur.Error(); err != nil {
			g.err = err
			return
		}
		if !g.openGroup(g.idx - 1) {
			return
		}
		g.cur.Last()
	}
}

func (g *guardLevelIter) Valid() bool {
	return g.err == nil && g.cur != nil && g.cur.Valid()
}

func (g *guardLevelIter) Key() []byte   { return g.cur.Key() }
func (g *guardLevelIter) Value() []byte { return g.cur.Value() }

func (g *guardLevelIter) Error() error { return g.err }

func (g *guardLevelIter) Close() error {
	g.closeCur()
	return g.err
}

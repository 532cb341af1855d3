package flsm

import (
	"bytes"
	"sort"

	"pebblesdb/internal/base"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/treebase"
)

// An FLSM compaction unit is a set of guard groups of one level (or the
// whole of L0), one merge per group. Guards partition a level's key space
// into disjoint groups (§3.1), so units made of disjoint groups of the same
// level run concurrently — the paper's "trivially parallelizable" compaction
// (§3.4), realized across scheduler workers. What a running unit holds is
// its tables, in the core's treebase.Claims: a group is busy while any of
// its tables is held. The layout's own scheduling state is what units share
// on the output side.

// inflight is the output side of the running units: writers[l] counts units
// currently adding files to level l. While it is non-zero, partition[l] is
// the level's shared output partition and commitKeys[l] the guards its
// writers commit: every concurrent output into the level cuts at the same
// keys, so no output can straddle a guard another unit commits (the
// invariant version.insertGuards relies on when it redistributes files).
type inflight struct {
	writers    []int
	partition  [][][]byte
	commitKeys [][][]byte
}

// triggers offers take, in priority order, every unit the paper's triggers
// make of the groups held leaves free: L0 fill, level size by score,
// size ratio (§4.2 aggressive compaction), per-guard sstable caps (§3.5) and
// seek budgets (§4.2). A unit is the populated free groups among [lo, hi) of
// level (level 0: all of L0); take returns true to end the walk. Claimable
// counts the offers and Pick builds the first, so N workers end up with
// disjoint units — including disjoint guard groups of the same level.
func (l *layout) triggers(held treebase.Claims, take func(level, lo, hi int, seek bool) bool) {
	v := l.cur
	last := l.cfg.NumLevels - 1

	// 1. L0 file count. L0 files overlap arbitrarily, so the unit is
	// exclusive; it also gets absolute priority, because draining L0 is
	// what clears write stalls.
	if len(v.l0) >= l.cfg.L0CompactionTrigger && !held.L0() && take(0, 0, 0, false) {
		return
	}

	// 2. Level size, the highest-scoring over-threshold level first. The
	// level drains through several concurrent units instead of one
	// whole-level pass; each byte still moves down at most once per level.
	for tried := 0; ; {
		best, bestScore := 0, 0.0
		for lv := 1; lv < last; lv++ {
			score := float64(v.levels[lv].size) / float64(l.cfg.MaxBytesForLevel(lv))
			if tried&(1<<lv) == 0 && score >= 1.0 && score > bestScore {
				best, bestScore = lv, score
			}
		}
		if best == 0 {
			break
		}
		if l.drain(v, best, held, take) {
			return
		}
		tried |= 1 << best
	}

	// 3. Size-ratio rule: level i within SizeRatioPct of level i+1.
	for lv := 1; lv < last && l.cfg.SizeRatioPct > 0; lv++ {
		size, next := v.levels[lv].size, v.levels[lv+1].size
		if size < l.cfg.MaxBytesForLevel(lv) && next > 0 && size*100 >= next*int64(l.cfg.SizeRatioPct) &&
			l.drain(v, lv, held, take) {
			return
		}
	}

	// 4. Guard sstable cap. In the last level the merge is in place and
	// needs two files: rewriting a single one is pure churn (matters when
	// max_sstables_per_guard is 1, the PebblesDB-1 mode).
	for lv := 1; lv <= last; lv++ {
		for i, n := 0, v.Groups(lv); i < n; i++ {
			_, files := v.Group(lv, i)
			if len(files) >= l.cfg.MaxSSTablesPerGuard && (lv < last || len(files) >= 2) &&
				!held.Any(files) && take(lv, i, i+1, false) {
				return
			}
		}
	}

	// 5. Seek-triggered guard compaction. Stale entries (guard gone or
	// down to one file) are pruned here so they cannot keep reporting
	// phantom work.
	for id := range l.seekPending {
		i, files := findGroup(v, id)
		if len(files) <= 1 {
			delete(l.seekPending, id)
		} else if !held.Any(files) && take(id.Level, i, i+1, true) {
			return
		}
	}
}

// drain offers level lv's free populated groups in units of equal size: the
// level's populated groups split into about MaxCompactionConcurrency units,
// never smaller than CompactionUnitGuards. A small level drains in one pass
// — the same per-compaction overhead as a whole-level compaction — while a
// large level splits into just enough units to feed every worker, instead
// of shattering into many tiny compactions whose fixed costs (iterator
// setup, table builds, manifest edits) would dominate.
func (l *layout) drain(v *version, lv int, held treebase.Claims, take func(level, lo, hi int, seek bool) bool) bool {
	groups := v.Groups(lv)
	populated := 0
	for i := 0; i < groups; i++ {
		if _, files := v.Group(lv, i); len(files) > 0 {
			populated++
		}
	}
	per := max((populated+l.cfg.MaxCompactionConcurrency-1)/l.cfg.MaxCompactionConcurrency, l.cfg.CompactionUnitGuards)
	lo, n := 0, 0
	for i := 0; i < groups; i++ {
		if _, files := v.Group(lv, i); len(files) == 0 || held.Any(files) {
			continue
		}
		if n++; n == per {
			if take(lv, lo, i+1, false) {
				return true
			}
			lo, n = i+1, 0
		}
	}
	return n > 0 && take(lv, lo, groups, false)
}

// Claimable counts the compaction units a worker could claim right now,
// stopping once limit is reached.
func (l *layout) Claimable(limit int, held treebase.Claims) int {
	n := 0
	l.triggers(held, func(int, int, int, bool) bool {
		n++
		return n >= limit
	})
	return n
}

// Pick returns the first unit the triggers offer, or with force the one
// pushing the topmost populated level's free data one level down regardless
// of triggers: nil when everything already sits in the last level (or
// running units hold the remaining work).
func (l *layout) Pick(force bool, held treebase.Claims) (u *treebase.Unit) {
	v := l.cur
	switch {
	case !force:
		l.triggers(held, func(level, lo, hi int, seek bool) bool {
			u = l.unit(level, lo, hi, seek, held)
			return true
		})
	case len(v.l0) > 0:
		if !held.L0() {
			u = l.unit(0, 0, 0, false, held)
		}
	default:
		for lv := 1; lv < l.cfg.NumLevels-1; lv++ {
			if v.levels[lv].files > 0 {
				return l.unit(lv, 0, v.Groups(lv), false, held)
			}
		}
	}
	return u
}

// lastLevelRewriteFactor is the IO blow-up beyond which the second-highest
// level rewrites in place instead of merging into the full last-level guard
// (§3.4).
const lastLevelRewriteFactor = 25

// unit builds the unit triggers offered: one merge per free populated group
// of [lo, hi), each registered as a writer on its destination level and cut
// at that level's shared partition; nil when no group is free.
func (l *layout) unit(level, lo, hi int, seek bool, held treebase.Claims) *treebase.Unit {
	v := l.cur
	last := l.cfg.NumLevels - 1
	u := &treebase.Unit{Level: level, Seek: seek}
	writes := 0 // levels u is a writer on, as a bit set
	add := func(key []byte, files []*base.FileMetadata) {
		m := treebase.Merge{Guard: key, Files: append([]*base.FileMetadata(nil), files...), Dst: level + 1}
		// The last level merges in place. So does the one above it (§3.4)
		// when the target guard in the last level is full and merging there
		// would cost more than lastLevelRewriteFactor times the input. A
		// single-file guard is exempt: rewriting one file in place is pure
		// churn (and would repeat forever).
		m.InPlace = level == last
		if level == last-1 && len(files) >= 2 {
			full, existing := l.lastLevelPressure(v, files)
			m.InPlace = full && existing > lastLevelRewriteFactor*sizeOf(files)
		}
		if m.InPlace {
			m.Dst = level
			// Only an in-place merge of a whole last-level guard covers
			// every file that could hold older versions of its keys. Out of
			// L0 in particular, older versions may live below.
			m.Elide = level == last
		}
		if writes&(1<<m.Dst) == 0 {
			writes |= 1 << m.Dst
			l.addWriter(u, m.Dst)
		}
		m.Cut.Keys = l.inflight.partition[m.Dst]
		u.Merges = append(u.Merges, m)
	}
	if level == 0 {
		add(nil, v.l0)
	} else {
		for i := lo; i < hi; i++ {
			if key, files := v.Group(level, i); len(files) > 0 && !held.Any(files) {
				add(key, files)
			}
		}
	}
	if len(u.Merges) == 0 {
		return nil
	}
	u.Lo, u.Hi = string(u.Merges[0].Guard), string(u.Merges[len(u.Merges)-1].Guard)
	if seek {
		delete(l.seekPending, guardID{Level: level, Key: u.Lo})
	}
	return u
}

// addWriter registers u as a writer on level dst. The first writer fixes
// the level's shared partition — its committed guards plus the uncommitted
// guards no existing file straddles (§3.3) — and it stays fixed until the
// last writer releases, so every concurrent output into the level cuts at
// the same keys and no output can straddle a guard another unit commits.
// An in-place rewrite partitions at the same shared keys: cuts only occur
// at keys inside the data it writes, so the output stays within its guard
// while still honoring every commit candidate.
func (l *layout) addWriter(u *treebase.Unit, dst int) {
	inf := &l.inflight
	if inf.writers[dst] == 0 {
		gl := &l.cur.levels[dst]
		var eligible [][]byte
		for _, k := range l.uncommitted[dst] {
			if !gl.straddles(k) {
				eligible = append(eligible, append([]byte(nil), k...))
			}
		}
		keys := append(gl.guardKeys(), eligible...)
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		inf.partition[dst], inf.commitKeys[dst] = keys, eligible
	}
	inf.writers[dst]++
	// Every writer carries the level's commit set; guard commits are
	// idempotent (insertGuards dedups), and this way the commits land
	// even if a peer unit fails.
	for _, k := range inf.commitKeys[dst] {
		u.Guards = append(u.Guards, manifest.GuardEntry{Level: dst, Key: k})
	}
}

// Release drops u's writer refcounts; a level's shared partition dissolves
// with its last writer (the next one recomputes it against the then-current
// version). A unit that completed also resets its source guards' seek
// budgets, in place: the next charge of the guard allocates nothing.
func (l *layout) Release(u *treebase.Unit, done bool) {
	inf := &l.inflight
	writes := 0
	for i := range u.Merges {
		m := &u.Merges[i]
		if done && u.Level > 0 {
			if b := l.seekBudgets[u.Level][string(m.Guard)]; b != nil {
				*b = treebase.SeekBudget{}
			}
			delete(l.seekPending, guardID{Level: u.Level, Key: string(m.Guard)})
		}
		if writes&(1<<m.Dst) != 0 {
			continue
		}
		writes |= 1 << m.Dst
		if inf.writers[m.Dst]--; inf.writers[m.Dst] == 0 {
			inf.partition[m.Dst] = nil
			inf.commitKeys[m.Dst] = nil
		}
	}
}

// findGroup returns the index and the files of the guard id names (Key ""
// is the sentinel), nil when it is no longer a guard. Guards are sorted by
// key, so the interval lookup is guard.FindGuard's binary search; an
// exact-key check distinguishes "this guard" from "a key inside some other
// guard's interval".
func findGroup(v *version, id guardID) (int, []*base.FileMetadata) {
	i, files := v.Find(id.Level, []byte(id.Key))
	if key, _ := v.Group(id.Level, i); id.Key != "" && string(key) != id.Key {
		return i, nil
	}
	return i, files
}

// lastLevelPressure reports whether the last-level guard that would receive
// the merge of src is at its sstable cap, and how many bytes it already
// holds.
func (l *layout) lastLevelPressure(v *version, src []*base.FileMetadata) (full bool, existing uint64) {
	lo := src[0].SmallestUserKey()
	for _, f := range src[1:] {
		if bytes.Compare(f.SmallestUserKey(), lo) < 0 {
			lo = f.SmallestUserKey()
		}
	}
	_, files := v.Find(l.cfg.NumLevels-1, lo)
	return len(files) >= l.cfg.MaxSSTablesPerGuard, sizeOf(files)
}

func sizeOf(files []*base.FileMetadata) (t uint64) {
	for _, f := range files {
		t += f.Size
	}
	return t
}

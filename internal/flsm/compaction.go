package flsm

import (
	"bytes"
	"math"
	"sort"

	"pebblesdb/internal/base"
	"pebblesdb/internal/guard"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/treebase"
)

// sourceGuard is one guard's worth of compaction input. key==nil means the
// sentinel (or, in the L0 unit, the whole of L0). dst/inPlace/partition
// describe the source's output: the level its merged contents land in,
// whether it is an in-place rewrite, and the shared partition keys the
// output is cut at (fixed at claim time, see writerPartitionLocked).
type sourceGuard struct {
	key       []byte
	files     []*base.FileMetadata
	dst       int
	inPlace   bool
	partition [][]byte
}

func (s *sourceGuard) bytes() uint64 {
	var t uint64
	for _, f := range s.files {
		t += f.Size
	}
	return t
}

// compaction is one claimed unit of FLSM compaction work: a set of source
// guard groups of one level (or the whole of L0 as a single source), each
// with its own destination. Guards partition a level's key space into
// disjoint units (§3.1), so units claiming disjoint guard sets of the same
// level can run concurrently — the paper's "trivially parallelizable"
// compaction (§3.4), realized across scheduler workers.
type compaction struct {
	level   int // source level; 0 = L0 compaction
	sources []sourceGuard
	seek    bool
	// commits are the uncommitted guards this unit commits, taken from the
	// shared commit set of every destination level it writes.
	commits []manifest.GuardEntry
	// writerLevels are the levels this unit holds a writer claim on.
	writerLevels []int
}

// unit describes c to the core: one merge per source, cut at the
// destination's shared partition.
func (c *compaction) unit(last int) *treebase.Unit {
	u := &treebase.Unit{
		Level:  c.level,
		Lo:     string(c.sources[0].key),
		Hi:     string(c.sources[len(c.sources)-1].key),
		Seek:   c.seek,
		Guards: c.commits,
		Claim:  c,
	}
	for i := range c.sources {
		s := &c.sources[i]
		u.Merges = append(u.Merges, treebase.Merge{
			Files:   s.files,
			Dst:     s.dst,
			InPlace: s.inPlace,
			// Only an in-place merge of a whole last-level guard covers
			// every file that could hold older versions of its keys. Out of
			// L0 in particular, older versions may live below.
			Elide: s.inPlace && s.dst == last,
			Cut:   treebase.CutPolicy{Keys: s.partition},
		})
	}
	return u
}

// inflight is the scheduler's claim state: the compaction work owned by
// running units. Claims are taken under the core's lock at pick time and released
// after the unit's edit installs.
type inflight struct {
	// l0 marks an exclusive L0->L1 unit: L0 files overlap arbitrarily, so
	// only one unit may own them.
	l0 bool
	// srcGuards[l] holds the guard keys ("" = sentinel) whose files are
	// claimed as compaction inputs at level l; concurrent units on one
	// level own disjoint guard sets, so they never touch the same file.
	srcGuards []map[string]bool
	// writers[l] counts units currently adding files to level l. While it
	// is non-zero, partition[l] is the level's shared output partition and
	// commitKeys[l] the guards its writers commit: every concurrent output
	// into the level cuts at the same keys, so no output can straddle a
	// guard another unit commits (the invariant version.insertGuards
	// relies on when it redistributes files).
	writers    []int
	partition  [][][]byte
	commitKeys [][][]byte
}

func (inf *inflight) init(numLevels int) {
	inf.srcGuards = make([]map[string]bool, numLevels)
	for i := range inf.srcGuards {
		inf.srcGuards[i] = map[string]bool{}
	}
	inf.writers = make([]int, numLevels)
	inf.partition = make([][][]byte, numLevels)
	inf.commitKeys = make([][][]byte, numLevels)
}

// claimedSrcLocked reports whether a guard group is claimed as input.
func (l *layout) claimedSrcLocked(level int, key []byte) bool {
	return l.inflight.srcGuards[level][string(key)]
}

// unclaimedGroupsLocked counts populated guard groups of a level not
// claimed by a running unit.
func (l *layout) unclaimedGroupsLocked(v *version, lv int, ignoreClaims bool) int {
	gl := &v.levels[lv]
	n := 0
	if len(gl.sentinel) > 0 && (ignoreClaims || !l.claimedSrcLocked(lv, nil)) {
		n++
	}
	for i := range gl.guards {
		if len(gl.guards[i].Files) > 0 && (ignoreClaims || !l.claimedSrcLocked(lv, gl.guards[i].Key)) {
			n++
		}
	}
	return n
}

// Claimable counts the compaction units a worker could claim right now,
// stopping once limit is reached.
func (l *layout) Claimable(limit int, ignoreClaims bool) int {
	v := l.cur
	last := l.cfg.NumLevels - 1
	n := 0

	// 1. L0 file count (exclusive unit).
	if len(v.l0) >= l.cfg.L0CompactionTrigger && (ignoreClaims || !l.inflight.l0) {
		if n++; n >= limit {
			return n
		}
	}

	// 2+3. Level size and size-ratio rule: an over-threshold level
	// contributes one unit per CompactionUnitGuards unclaimed groups.
	for lv := 1; lv < last; lv++ {
		size := v.levels[lv].totalBytes()
		over := size >= l.cfg.MaxBytesForLevel(lv)
		if !over && l.cfg.SizeRatioPct > 0 {
			next := v.levels[lv+1].totalBytes()
			over = next > 0 && size*100 >= next*int64(l.cfg.SizeRatioPct)
		}
		if !over {
			continue
		}
		groups := l.unclaimedGroupsLocked(v, lv, ignoreClaims)
		per := l.unitGroupsLocked(v, lv)
		n += (groups + per - 1) / per
		if n >= limit {
			return n
		}
	}

	// 4. Guard sstable cap.
	for lv := 1; lv <= last; lv++ {
		gl := &v.levels[lv]
		capped := func(key []byte, files []*base.FileMetadata) bool {
			if len(files) < l.cfg.MaxSSTablesPerGuard {
				return false
			}
			if lv == last && len(files) < 2 {
				return false
			}
			return ignoreClaims || !l.claimedSrcLocked(lv, key)
		}
		if capped(nil, gl.sentinel) {
			if n++; n >= limit {
				return n
			}
		}
		for i := range gl.guards {
			if capped(gl.guards[i].Key, gl.guards[i].Files) {
				if n++; n >= limit {
					return n
				}
			}
		}
	}

	// 5. Seek-triggered guard compaction. Stale entries (guard gone or
	// down to one file) are pruned here so they cannot keep reporting
	// phantom work.
	for id := range l.seekPending {
		src := l.findGroup(v, id.Level, id.Key)
		if src == nil || len(src) <= 1 {
			delete(l.seekPending, id)
			continue
		}
		if !ignoreClaims && l.inflight.srcGuards[id.Level][id.Key] {
			continue
		}
		if n++; n >= limit {
			return n
		}
	}
	return n
}

// unitGroupsLocked sizes a level-drain unit: the level's populated groups
// split into about MaxCompactionConcurrency units, never smaller than
// CompactionUnitGuards. A small level drains in one pass — the same
// per-compaction overhead as a whole-level compaction — while a large
// level splits into just enough units to feed every worker, instead of
// shattering into many tiny compactions whose fixed costs (iterator
// setup, table builds, manifest edits) would dominate.
func (l *layout) unitGroupsLocked(v *version, lv int) int {
	groups := l.unclaimedGroupsLocked(v, lv, true)
	per := (groups + l.cfg.MaxCompactionConcurrency - 1) / l.cfg.MaxCompactionConcurrency
	if per < l.cfg.CompactionUnitGuards {
		per = l.cfg.CompactionUnitGuards
	}
	return per
}

// Pick claims the next unit (see pickLocked), or with force the unit
// pushing the topmost populated level's unclaimed data one level down.
func (l *layout) Pick(force bool) *treebase.Unit {
	var c *compaction
	if force {
		c = l.forcePushLocked()
	} else {
		c = l.pickLocked()
	}
	if c == nil {
		return nil
	}
	return c.unit(l.cfg.NumLevels - 1)
}

// pickLocked claims and returns the next compaction unit following the
// paper's triggers, in priority order: L0 fill, level size, size-ratio
// (§4.2 aggressive compaction), per-guard sstable caps (§3.5), and seek
// budgets (§4.2). Work already claimed by a running unit is skipped, so N
// workers end up holding disjoint units — including disjoint guard groups
// of the same level.
func (l *layout) pickLocked() *compaction {
	v := l.cur
	last := l.cfg.NumLevels - 1

	// 1. L0 file count. L0 files overlap arbitrarily, so the unit is
	// exclusive; it also gets absolute priority, because draining L0 is
	// what clears write stalls.
	if len(v.l0) >= l.cfg.L0CompactionTrigger && !l.inflight.l0 {
		return l.claimL0Locked(v)
	}

	// 2. Level size: claim up to CompactionUnitGuards unclaimed populated
	// groups of the highest-scoring over-threshold level. The level
	// drains through several concurrent units instead of one whole-level
	// pass; each byte still moves down at most once per level.
	bestScore := 0.0
	bestLevel := -1
	for lv := 1; lv < last; lv++ {
		score := float64(v.levels[lv].totalBytes()) / float64(l.cfg.MaxBytesForLevel(lv))
		if score >= 1.0 && score > bestScore && l.unclaimedGroupsLocked(v, lv, false) > 0 {
			bestScore, bestLevel = score, lv
		}
	}
	if bestLevel > 0 {
		if c := l.claimLevelUnitLocked(v, bestLevel, l.unitGroupsLocked(v, bestLevel)); c != nil {
			return c
		}
	}

	// 3. Size-ratio rule: level i within SizeRatioPct of level i+1.
	if l.cfg.SizeRatioPct > 0 {
		for lv := 1; lv < last; lv++ {
			next := v.levels[lv+1].totalBytes()
			if next <= 0 {
				continue
			}
			if v.levels[lv].totalBytes()*100 >= next*int64(l.cfg.SizeRatioPct) {
				if c := l.claimLevelUnitLocked(v, lv, l.unitGroupsLocked(v, lv)); c != nil {
					return c
				}
			}
		}
	}

	// 4. Guard sstable cap.
	for lv := 1; lv <= last; lv++ {
		gl := &v.levels[lv]
		if c := l.claimCapGroupLocked(v, lv, nil, gl.sentinel); c != nil {
			return c
		}
		for i := range gl.guards {
			if c := l.claimCapGroupLocked(v, lv, gl.guards[i].Key, gl.guards[i].Files); c != nil {
				return c
			}
		}
	}

	// 5. Seek-triggered guard compaction.
	for id := range l.seekPending {
		lv := id.Level
		src := l.findGroup(v, lv, id.Key)
		if src == nil || len(src) <= 1 {
			delete(l.seekPending, id)
			continue
		}
		var key []byte
		if id.Key != "" {
			key = []byte(id.Key)
		}
		if l.claimedSrcLocked(lv, key) {
			continue
		}
		delete(l.seekPending, id)
		return l.claimGroupLocked(v, lv, key, src, lv == last, true)
	}
	return nil
}

// claimCapGroupLocked claims a single over-cap guard group, or nil.
func (l *layout) claimCapGroupLocked(v *version, lv int, key []byte, files []*base.FileMetadata) *compaction {
	last := l.cfg.NumLevels - 1
	if len(files) < l.cfg.MaxSSTablesPerGuard {
		return nil
	}
	if lv == last && len(files) < 2 {
		// In-place merges need at least two files; rewriting a single
		// file is pure churn (matters when max_sstables_per_guard is 1,
		// the PebblesDB-1 mode).
		return nil
	}
	if l.claimedSrcLocked(lv, key) {
		return nil
	}
	return l.claimGroupLocked(v, lv, key, files, lv == last, false)
}

// claimGroupLocked builds and claims a single-group unit.
func (l *layout) claimGroupLocked(v *version, lv int, key []byte, files []*base.FileMetadata, inPlace, seek bool) *compaction {
	c := &compaction{level: lv, seek: seek}
	s := sourceGuard{key: key, files: append([]*base.FileMetadata(nil), files...), dst: lv + 1}
	if inPlace {
		s.dst, s.inPlace = lv, true
	}
	c.sources = append(c.sources, s)
	l.finalizeUnitLocked(c, v)
	return c
}

// claimLevelUnitLocked claims up to maxGroups unclaimed populated groups
// of a level as one unit, or nil when every group is claimed or empty.
func (l *layout) claimLevelUnitLocked(v *version, lv, maxGroups int) *compaction {
	gl := &v.levels[lv]
	c := &compaction{level: lv}
	if len(gl.sentinel) > 0 && !l.claimedSrcLocked(lv, nil) {
		c.sources = append(c.sources, sourceGuard{
			key:   nil,
			files: append([]*base.FileMetadata(nil), gl.sentinel...),
			dst:   lv + 1,
		})
	}
	for i := range gl.guards {
		if len(c.sources) >= maxGroups {
			break
		}
		if len(gl.guards[i].Files) == 0 || l.claimedSrcLocked(lv, gl.guards[i].Key) {
			continue
		}
		c.sources = append(c.sources, sourceGuard{
			key:   gl.guards[i].Key,
			files: append([]*base.FileMetadata(nil), gl.guards[i].Files...),
			dst:   lv + 1,
		})
	}
	if len(c.sources) == 0 {
		return nil
	}
	l.finalizeUnitLocked(c, v)
	return c
}

// claimL0Locked claims the exclusive L0->L1 unit.
func (l *layout) claimL0Locked(v *version) *compaction {
	c := &compaction{level: 0}
	l.inflight.l0 = true
	c.sources = []sourceGuard{{
		files:     append([]*base.FileMetadata(nil), v.l0...),
		dst:       1,
		partition: l.writerPartitionLocked(c, 1),
	}}
	return c
}

// lastLevelRewriteFactor is the IO blow-up beyond which the second-highest
// level rewrites in place instead of merging into the full last-level guard
// (§3.4).
const lastLevelRewriteFactor = 25

// finalizeUnitLocked turns gathered sources into a claimed, runnable unit:
// it applies the §3.4 second-to-last-level rewrite heuristic against the
// version v the unit was planned on, registers the unit as a writer on
// every destination level (fixing each level's shared output partition),
// and claims the source guards.
func (l *layout) finalizeUnitLocked(c *compaction, v *version) {
	last := l.cfg.NumLevels - 1
	for i := range c.sources {
		s := &c.sources[i]
		// Second-to-last level heuristic (§3.4): when the target guard in
		// the last level is full and merging there would cost more than
		// lastLevelRewriteFactor times the input, rewrite within this
		// level instead. A single-file guard is exempt: rewriting one
		// file in place is pure churn (and would repeat forever).
		if !s.inPlace && c.level == last-1 && len(s.files) >= 2 {
			if full, existing := l.lastLevelPressure(v, *s); full &&
				existing > lastLevelRewriteFactor*s.bytes() {
				s.dst = c.level
				s.inPlace = true
			}
		}
	}
	for i := range c.sources {
		s := &c.sources[i]
		s.partition = l.writerPartitionLocked(c, s.dst)
		l.inflight.srcGuards[c.level][string(s.key)] = true
	}
}

// writerPartitionLocked registers c as a writer on level dst (once per
// unit) and returns the level's shared partition keys. The first writer
// fixes the partition — the level's committed guards plus the uncommitted
// guards no existing file straddles (§3.3) — and it stays fixed until the
// last writer releases, so every concurrent output into the level cuts at
// the same keys and no output can straddle a guard another unit commits.
// An in-place rewrite partitions at the same shared keys: cuts only occur
// at keys inside the data it writes, so the output stays within its guard
// while still honoring every commit candidate.
func (l *layout) writerPartitionLocked(c *compaction, dst int) [][]byte {
	inf := &l.inflight
	for _, wl := range c.writerLevels {
		if wl == dst {
			return inf.partition[dst]
		}
	}
	if inf.writers[dst] == 0 {
		gl := &l.cur.levels[dst]
		committed := gl.guardKeys()
		var eligible [][]byte
		for _, k := range l.uncommitted[dst] {
			if !gl.straddles(k) {
				eligible = append(eligible, append([]byte(nil), k...))
			}
		}
		keys := make([][]byte, 0, len(committed)+len(eligible))
		keys = append(keys, committed...)
		keys = append(keys, eligible...)
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		inf.partition[dst] = keys
		inf.commitKeys[dst] = eligible
	}
	inf.writers[dst]++
	c.writerLevels = append(c.writerLevels, dst)
	// Every writer carries the level's commit set; guard commits are
	// idempotent (insertGuards dedups), and this way the commits land
	// even if a peer unit fails.
	for _, k := range inf.commitKeys[dst] {
		c.commits = append(c.commits, manifest.GuardEntry{Level: dst, Key: k})
	}
	return inf.partition[dst]
}

// Release returns a unit's claims: source guards unlock, writer refcounts
// drop, and a level's shared partition dissolves with its last writer (the
// next claim recomputes it against the then-current version). A unit that
// completed also resets its source guards' seek budgets.
func (l *layout) Release(u *treebase.Unit, done bool) {
	l.releaseLocked(u.Claim.(*compaction), done)
}

func (l *layout) releaseLocked(c *compaction, done bool) {
	inf := &l.inflight
	if c.level == 0 {
		inf.l0 = false
	} else {
		for i := range c.sources {
			key := string(c.sources[i].key)
			delete(inf.srcGuards[c.level], key)
			if done {
				delete(l.seeksLeft[c.level], key)
				delete(l.seekPending, guardID{Level: c.level, Key: key})
			}
		}
	}
	for _, wl := range c.writerLevels {
		inf.writers[wl]--
		if inf.writers[wl] == 0 {
			inf.partition[wl] = nil
			inf.commitKeys[wl] = nil
		}
	}
}

// findGroup returns the files of the guard identified by key ("" sentinel).
// Guards are sorted by key, so the interval lookup is guard.FindGuard's
// binary search; an exact-key check distinguishes "this guard" from "a key
// inside some other guard's interval".
func (l *layout) findGroup(v *version, level int, key string) []*base.FileMetadata {
	gl := &v.levels[level]
	if key == "" {
		return gl.sentinel
	}
	idx := guard.FindGuard(gl.guards, []byte(key))
	if idx >= 0 && string(gl.guards[idx].Key) == key {
		return gl.guards[idx].Files
	}
	return nil
}

// lastLevelPressure reports whether the last-level guard receiving source
// guard s is at its sstable cap, and how many bytes it already holds.
func (l *layout) lastLevelPressure(v *version, s sourceGuard) (full bool, existing uint64) {
	last := l.cfg.NumLevels - 1
	gl := &v.levels[last]
	var lo []byte
	for i, f := range s.files {
		if i == 0 || bytes.Compare(f.SmallestUserKey(), lo) < 0 {
			lo = f.SmallestUserKey()
		}
	}
	idx := guard.FindGuard(gl.guards, lo)
	var files []*base.FileMetadata
	if idx < 0 {
		files = gl.sentinel
	} else {
		files = gl.guards[idx].Files
	}
	for _, f := range files {
		existing += f.Size
	}
	return len(files) >= l.cfg.MaxSSTablesPerGuard, existing
}

// forcePushLocked claims a compaction moving the topmost populated
// level's unclaimed data one level down regardless of size triggers, or
// nil when everything already sits in the last level (or running units
// hold the remaining work).
func (l *layout) forcePushLocked() *compaction {
	v := l.cur
	last := l.cfg.NumLevels - 1
	if len(v.l0) > 0 {
		if l.inflight.l0 {
			return nil
		}
		return l.claimL0Locked(v)
	}
	for lv := 1; lv < last; lv++ {
		if v.levels[lv].files == 0 {
			continue
		}
		return l.claimLevelUnitLocked(v, lv, math.MaxInt)
	}
	return nil
}

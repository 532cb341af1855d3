package leveled

import (
	"bytes"

	"pebblesdb/internal/base"
	"pebblesdb/internal/treebase"
)

// compaction describes one unit of work: merge inputs (level) with targets
// (level+1) and write the result to level+1.
type compaction struct {
	level     int
	inputs    []*base.FileMetadata
	targets   []*base.FileMetadata
	seek      bool // triggered by seek budget exhaustion
	trivially bool // metadata-only move
}

// targetsFreeLocked reports whether no level+1 file overlapping [lo, hi]
// is claimed by a running unit. Allocation-free (no target slice built).
func (l *layout) targetsFreeLocked(v *version, level int, lo, hi []byte) bool {
	for _, g := range v.files[level+1] {
		if bytes.Compare(g.LargestUserKey(), lo) < 0 || bytes.Compare(g.SmallestUserKey(), hi) > 0 {
			continue
		}
		if l.claimed[g.FileNum] {
			return false
		}
	}
	return true
}

// l0Hull returns the user-key hull of level 0 without allocating.
func l0Hull(v *version) (lo, hi []byte) {
	for i, f := range v.files[0] {
		if i == 0 || bytes.Compare(f.SmallestUserKey(), lo) < 0 {
			lo = f.SmallestUserKey()
		}
		if i == 0 || bytes.Compare(f.LargestUserKey(), hi) > 0 {
			hi = f.LargestUserKey()
		}
	}
	return lo, hi
}

// Claimable counts the compaction units a worker could claim right now,
// stopping once limit is reached.
func (l *layout) Claimable(limit int, ignoreClaims bool) int {
	v := l.cur
	n := 0
	if len(v.files[0]) >= l.cfg.L0CompactionTrigger {
		free := ignoreClaims
		if !free && !l.l0Busy {
			lo, hi := l0Hull(v)
			free = l.targetsFreeLocked(v, 0, lo, hi)
		}
		if free {
			if n++; n >= limit {
				return n
			}
		}
	}
	// An over-threshold level contributes one unit per file it is over by
	// (score floor), bounded by the files actually free to claim: two
	// workers can drain disjoint ranges of the same level pair.
	for lv := 1; lv < l.cfg.NumLevels-1; lv++ {
		size := v.levelBytes(lv)
		max := l.cfg.MaxBytesForLevel(lv)
		if size < max {
			continue
		}
		want := int(size / max)
		got := 0
		for _, f := range v.files[lv] {
			if got >= want {
				break
			}
			if !ignoreClaims {
				if l.claimed[f.FileNum] ||
					!l.targetsFreeLocked(v, lv, f.SmallestUserKey(), f.LargestUserKey()) {
					continue
				}
			}
			got++
		}
		n += got
		if n >= limit {
			return n
		}
	}
	// Seek-triggered candidates; stale entries (file compacted away) are
	// pruned so they cannot keep reporting phantom work.
	for fn, level := range l.seekPending {
		var file *base.FileMetadata
		for _, f := range v.files[level] {
			if f.FileNum == fn {
				file = f
				break
			}
		}
		if file == nil {
			delete(l.seekPending, fn)
			continue
		}
		if !ignoreClaims {
			if l.claimed[fn] ||
				!l.targetsFreeLocked(v, level, file.SmallestUserKey(), file.LargestUserKey()) {
				continue
			}
		}
		if n++; n >= limit {
			return n
		}
	}
	return n
}

// claimLocked marks a unit's files as owned.
func (l *layout) claimLocked(c *compaction) {
	if c.level == 0 {
		l.l0Busy = true
	}
	for _, f := range c.inputs {
		l.claimed[f.FileNum] = true
	}
	for _, f := range c.targets {
		l.claimed[f.FileNum] = true
	}
}

// Release returns a unit's file claims. A unit that completed advances its
// level's round-robin cursor past its inputs.
func (l *layout) Release(u *treebase.Unit, done bool) {
	l.releaseLocked(u.Claim.(*compaction), done)
}

func (l *layout) releaseLocked(c *compaction, done bool) {
	if c.level == 0 {
		l.l0Busy = false
	}
	for _, f := range c.inputs {
		delete(l.claimed, f.FileNum)
	}
	for _, f := range c.targets {
		delete(l.claimed, f.FileNum)
	}
	if done {
		l.compactPtr[c.level] = append([]byte(nil), c.inputs[len(c.inputs)-1].LargestUserKey()...)
	}
}

// Pick claims the next unit (see pickLocked), or with force the unit
// pushing the topmost populated level's files one level down.
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
	lo, hi := rangeOfFiles(c.inputs)
	dst := c.level + 1
	return &treebase.Unit{
		Level: c.level,
		Lo:    string(lo),
		Hi:    string(hi),
		Seek:  c.seek,
		Move:  c.trivially,
		Claim: c,
		Merges: []treebase.Merge{{
			Files:   c.inputs,
			Overlap: c.targets,
			Dst:     dst,
			// Tombstones every snapshot can see have nothing left to mask
			// once the output is the last level.
			Elide: dst == l.cfg.NumLevels-1,
			Cut:   treebase.CutPolicy{Size: uint64(l.cfg.TargetFileSize)},
		}},
	}
}

// pickLocked claims and returns the next compaction unit, or nil. Claims
// are file-granular: a unit owns its inputs plus the level+1 files they
// overlap, so units with disjoint key ranges run concurrently even on the
// same level pair. Because targets are always the full contiguous run of
// level+1 files overlapping the input hull, a unit's outputs can never
// straddle a file it does not own — the level's disjointness invariant
// holds under concurrent installs.
func (l *layout) pickLocked() *compaction {
	v := l.cur

	// L0 gets absolute priority (draining L0 is what clears write stalls)
	// and is exclusive: L0 files overlap arbitrarily, so one unit takes
	// them all.
	if len(v.files[0]) >= l.cfg.L0CompactionTrigger && !l.l0Busy {
		lo, hi := l0Hull(v)
		if l.targetsFreeLocked(v, 0, lo, hi) {
			inputs := append([]*base.FileMetadata(nil), v.files[0]...)
			c := &compaction{level: 0, inputs: inputs, targets: overlaps(v.files[1], lo, hi)}
			if len(c.inputs) == 1 && len(c.targets) == 0 {
				c.trivially = true
			}
			l.claimLocked(c)
			return c
		}
	}

	// Size-triggered levels in score order; within a level, round-robin
	// from the compaction pointer over files free to claim.
	tried := 0
	for {
		bestScore := 0.0
		bestLevel := -1
		for lv := 1; lv < l.cfg.NumLevels-1; lv++ {
			if tried&(1<<lv) != 0 {
				continue
			}
			score := float64(v.levelBytes(lv)) / float64(l.cfg.MaxBytesForLevel(lv))
			if score >= 1.0 && score > bestScore {
				bestScore, bestLevel = score, lv
			}
		}
		if bestLevel < 0 {
			break
		}
		if c := l.pickClaimableFileLocked(v, bestLevel); c != nil {
			return c
		}
		tried |= 1 << bestLevel
	}

	return l.pickSeekLocked(v)
}

// pickClaimableFileLocked round-robins from the level's compaction pointer
// (LevelDB style) over files whose input and target sets are free, claims
// the first, and returns the unit; nil when every candidate conflicts with
// a running unit.
func (l *layout) pickClaimableFileLocked(v *version, level int) *compaction {
	files := v.files[level]
	if len(files) == 0 {
		return nil
	}
	start := 0
	if ptr := l.compactPtr[level]; ptr != nil {
		for i, f := range files {
			if bytes.Compare(f.LargestUserKey(), ptr) > 0 {
				start = i
				break
			}
		}
	}
	for k := 0; k < len(files); k++ {
		f := files[(start+k)%len(files)]
		if l.claimed[f.FileNum] ||
			!l.targetsFreeLocked(v, level, f.SmallestUserKey(), f.LargestUserKey()) {
			continue
		}
		c := &compaction{
			level:   level,
			inputs:  []*base.FileMetadata{f},
			targets: overlaps(v.files[level+1], f.SmallestUserKey(), f.LargestUserKey()),
		}
		if len(c.targets) == 0 {
			c.trivially = true
		}
		l.claimLocked(c)
		return c
	}
	return nil
}

// pickSeekLocked turns a seek-budget exhaustion into a claimed compaction.
func (l *layout) pickSeekLocked(v *version) *compaction {
	for fn, level := range l.seekPending {
		var file *base.FileMetadata
		for _, f := range v.files[level] {
			if f.FileNum == fn {
				file = f
				break
			}
		}
		if file == nil {
			delete(l.seekPending, fn) // already compacted away
			continue
		}
		if l.claimed[fn] ||
			!l.targetsFreeLocked(v, level, file.SmallestUserKey(), file.LargestUserKey()) {
			continue
		}
		delete(l.seekPending, fn)
		c := &compaction{
			level:   level,
			inputs:  []*base.FileMetadata{file},
			targets: overlaps(v.files[level+1], file.SmallestUserKey(), file.LargestUserKey()),
			seek:    true,
		}
		if len(c.targets) == 0 {
			c.trivially = true
		}
		l.claimLocked(c)
		return c
	}
	return nil
}

// forcePushLocked claims a compaction moving the topmost populated
// level's files one level down regardless of size triggers, or nil when
// everything already sits in the last level (or running units hold any of
// the involved files).
func (l *layout) forcePushLocked() *compaction {
	v := l.cur
	for lv := 0; lv < l.cfg.NumLevels-1; lv++ {
		if len(v.files[lv]) == 0 {
			continue
		}
		if lv == 0 && l.l0Busy {
			return nil
		}
		inputs := append([]*base.FileMetadata(nil), v.files[lv]...)
		lo, hi := rangeOfFiles(inputs)
		for _, f := range inputs {
			if l.claimed[f.FileNum] {
				return nil
			}
		}
		if !l.targetsFreeLocked(v, lv, lo, hi) {
			return nil
		}
		c := &compaction{level: lv, inputs: inputs, targets: overlaps(v.files[lv+1], lo, hi)}
		if len(inputs) == 1 && len(c.targets) == 0 {
			c.trivially = true
		}
		l.claimLocked(c)
		return c
	}
	return nil
}

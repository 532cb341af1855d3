package leveled

import (
	"bytes"

	"pebblesdb/internal/base"
	"pebblesdb/internal/treebase"
)

// A leveled compaction unit merges inputs — one file of a level, or all of
// level 0 — with the files of the next level they overlap, its targets.
// Claims are file-granular: a unit holds its inputs plus its targets (in the
// core's treebase.Claims), so units with disjoint key ranges run
// concurrently even on the same level pair. Because targets are always the
// full contiguous run of level+1 files overlapping the input hull, a unit's
// outputs can never straddle a file it does not hold — the level's
// disjointness invariant holds under concurrent installs.

// free reports whether no running unit holds files [lo, hi) of level or any
// level+1 file they overlap. Allocation-free (no target slice built).
func (l *layout) free(v *version, held treebase.Claims, level, lo, hi int) bool {
	files := v.files[level][lo:hi]
	if held.Any(files) || level == 0 && held.L0() {
		return false
	}
	klo, khi := rangeOfFiles(files)
	for _, g := range v.files[level+1] {
		if bytes.Compare(g.LargestUserKey(), klo) >= 0 && bytes.Compare(g.SmallestUserKey(), khi) <= 0 && held.Has(g) {
			return false
		}
	}
	return true
}

// triggers offers take, in priority order, every unit the triggers make of
// the files held leaves free: files [lo, hi) of level with their targets.
// take returns true to end the walk. Claimable counts the offers and Pick
// builds the first.
func (l *layout) triggers(held treebase.Claims, take func(level, lo, hi int, seek bool) bool) {
	v := l.cur

	// L0 gets absolute priority (draining L0 is what clears write stalls)
	// and is exclusive: L0 files overlap arbitrarily, so one unit takes
	// them all.
	if n := len(v.files[0]); n >= l.cfg.L0CompactionTrigger && l.free(v, held, 0, 0, n) && take(0, 0, n, false) {
		return
	}

	// Size-triggered levels in score order. An over-threshold level offers
	// one unit per file it is over by (score floor), bounded by the files
	// actually free: two workers can drain disjoint ranges of the same
	// level pair. Within a level, round-robin from the compaction pointer
	// (LevelDB style).
	for tried := 0; ; {
		best, bestScore := 0, 0.0
		for lv := 1; lv < l.cfg.NumLevels-1; lv++ {
			score := float64(v.size[lv]) / float64(l.cfg.MaxBytesForLevel(lv))
			if tried&(1<<lv) == 0 && score >= 1.0 && score > bestScore {
				best, bestScore = lv, score
			}
		}
		if best == 0 {
			break
		}
		files := v.files[best]
		start := 0
		if ptr := l.compactPtr[best]; ptr != nil {
			for i, f := range files {
				if bytes.Compare(f.LargestUserKey(), ptr) > 0 {
					start = i
					break
				}
			}
		}
		want := int(v.size[best] / l.cfg.MaxBytesForLevel(best))
		for k := 0; k < len(files) && want > 0; k++ {
			if i := (start + k) % len(files); l.free(v, held, best, i, i+1) {
				if take(best, i, i+1, false) {
					return
				}
				want--
			}
		}
		tried |= 1 << best
	}

	// Seek-triggered candidates. Apply drops the entry of a table an edit
	// deletes or moves, but a Get charges the view it pinned, which may hold
	// a table the current version no longer does: such stale entries are
	// pruned here so they cannot keep reporting phantom work.
	for fn, level := range l.seekPending {
		i := 0
		for i < len(v.files[level]) && v.files[level][i].FileNum != fn {
			i++
		}
		if i == len(v.files[level]) {
			delete(l.seekPending, fn)
		} else if l.free(v, held, level, i, i+1) && take(level, i, i+1, true) {
			return
		}
	}
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
// pushing the topmost populated level's files one level down regardless of
// triggers: nil when everything already sits in the last level (or running
// units hold any of the involved files).
func (l *layout) Pick(force bool, held treebase.Claims) (u *treebase.Unit) {
	if !force {
		l.triggers(held, func(level, lo, hi int, seek bool) bool {
			u = l.unit(level, lo, hi, seek)
			return true
		})
		return u
	}
	v := l.cur
	for lv := 0; lv < l.cfg.NumLevels-1; lv++ {
		if n := len(v.files[lv]); n > 0 {
			if l.free(v, held, lv, 0, n) {
				u = l.unit(lv, 0, n, false)
			}
			break
		}
	}
	return u
}

// unit builds the unit triggers offered. One file that overlaps nothing in
// the next level moves there as it is.
func (l *layout) unit(level, lo, hi int, seek bool) *treebase.Unit {
	inputs := append([]*base.FileMetadata(nil), l.cur.files[level][lo:hi]...)
	klo, khi := rangeOfFiles(inputs)
	targets := overlaps(l.cur.files[level+1], klo, khi)
	if seek {
		delete(l.seekPending, inputs[0].FileNum)
	}
	dst := level + 1
	return &treebase.Unit{
		Level: level,
		Lo:    string(klo),
		Hi:    string(khi),
		Seek:  seek,
		Move:  len(inputs) == 1 && len(targets) == 0,
		Merges: []treebase.Merge{{
			Files:   inputs,
			Overlap: targets,
			Dst:     dst,
			// Tombstones every snapshot can see have nothing left to mask
			// once the output is the last level.
			Elide: dst == l.cfg.NumLevels-1,
			Cut:   treebase.CutPolicy{Size: uint64(l.cfg.TargetFileSize)},
		}},
	}
}

// Release advances the round-robin cursor of a completed unit's level past
// its inputs.
func (l *layout) Release(u *treebase.Unit, done bool) {
	if done {
		inputs := u.Merges[0].Files
		l.compactPtr[u.Level] = append([]byte(nil), inputs[len(inputs)-1].LargestUserKey()...)
	}
}

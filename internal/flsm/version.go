// Package flsm implements the Fragmented Log-Structured Merge tree and the
// PebblesDB compaction, read, and seek optimizations built over it
// (chapters 3 and 4 of the paper). Levels above L0 are partitioned by
// guards; sstables within a guard may overlap; compaction partitions merged
// guard contents by the next level's guards and appends, avoiding rewrites
// except in the last levels.
package flsm

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

	"pebblesdb/internal/base"
	"pebblesdb/internal/guard"
	"pebblesdb/internal/manifest"
)

// guardedLevel is one level's layout: a sentinel holding files below the
// first guard key, and the sorted guard list (possibly with empty guards —
// the paper keeps them, §3.3).
type guardedLevel struct {
	sentinel []*base.FileMetadata
	guards   []guard.Guard
	// shared marks guards as the parent version's array, while apply builds
	// this version: ownGuards copies it before an element is written.
	shared bool
	// files counts the level's sstables and size their bytes; apply sets
	// them once per version.
	files int
	size  int64
}

func (gl *guardedLevel) totalBytes() int64 {
	var t int64
	for _, f := range gl.sentinel {
		t += int64(f.Size)
	}
	for i := range gl.guards {
		t += int64(gl.guards[i].TotalBytes())
	}
	return t
}

func (gl *guardedLevel) fileCount() int {
	n := len(gl.sentinel)
	for i := range gl.guards {
		n += len(gl.guards[i].Files)
	}
	return n
}

// group returns group i of the level: 0 is the sentinel, i the guard i-1.
func (gl *guardedLevel) group(i int) (key []byte, files []*base.FileMetadata) {
	if i == 0 {
		return nil, gl.sentinel
	}
	return gl.guards[i-1].Key, gl.guards[i-1].Files
}

// guardKeys returns the level's committed guard keys.
func (gl *guardedLevel) guardKeys() [][]byte {
	keys := make([][]byte, len(gl.guards))
	for i := range gl.guards {
		keys[i] = gl.guards[i].Key
	}
	return keys
}

// hasGuard reports whether key is a committed guard of this level.
func (gl *guardedLevel) hasGuard(key []byte) bool {
	i := sort.Search(len(gl.guards), func(i int) bool {
		return bytes.Compare(gl.guards[i].Key, key) >= 0
	})
	return i < len(gl.guards) && bytes.Equal(gl.guards[i].Key, key)
}

// version is an immutable snapshot of the FLSM layout. As a treebase.View
// each level is the run sentinel, guard 0, guard 1, ...: guard intervals are
// disjoint (§3.1) and tile the key space, so the group that can hold a key
// is also where a seek to it lands.
//
// A group lists its sstables oldest first, the age order View.Group
// promises. Data only moves down and a unit takes a guard's whole file list,
// so fragments arrive from the level above in age order and are appended;
// apply puts the output of an in-place rewrite where its inputs were;
// insertGuards and deleteGuard move files between groups without reordering
// any two that share a key; and a snapshot edit lists a group in this
// order, which replay appends back.
type version struct {
	l0     []*base.FileMetadata // newest first
	levels []guardedLevel       // index 0 unused
}

func (v *version) L0() []*base.FileMetadata { return v.l0 }

func (v *version) Groups(level int) int { return len(v.levels[level].guards) + 1 }

func (v *version) Group(level, i int) ([]byte, []*base.FileMetadata) {
	return v.levels[level].group(i)
}

// Find is the guard lookup of §3.4: a binary search for the single guard
// that can hold ukey. Empty guards are skipped by their empty file list.
func (v *version) Find(level int, ukey []byte) (int, []*base.FileMetadata) {
	gl := &v.levels[level]
	i := guard.FindGuard(gl.guards, ukey) + 1
	_, files := gl.group(i)
	return i, files
}

// Span prunes the guards outside b: every file lies within its own guard
// interval, so only the guards from b.Lower's to b.Upper's can hold a key
// within b.
func (v *version) Span(level int, b base.Bounds) (lo, hi int) {
	gl := &v.levels[level]
	if gl.files == 0 {
		return 0, 0
	}
	hi = len(gl.guards) + 1
	if b.Lower != nil {
		lo = guard.FindGuard(gl.guards, b.Lower) + 1
	}
	if b.Upper != nil {
		hi = guard.FindGuard(gl.guards, b.Upper) + 2
	}
	return lo, hi
}

func newVersion(numLevels int) *version {
	return &version{levels: make([]guardedLevel, numLevels)}
}

// ownGuards makes the level's guard list this version's own.
func (gl *guardedLevel) ownGuards() {
	if gl.shared {
		gl.guards = append([]guard.Guard(nil), gl.guards...)
		gl.shared = false
	}
}

// setFiles replaces the file list of group idx (-1: the sentinel).
func (gl *guardedLevel) setFiles(idx int, files []*base.FileMetadata) {
	if idx < 0 {
		gl.sentinel = files
		return
	}
	gl.ownGuards()
	gl.guards[idx].Files = files
}

// withFile returns a new list: files and f, behind them or with front
// before them.
func withFile(files []*base.FileMetadata, f *base.FileMetadata, front bool) []*base.FileMetadata {
	out := make([]*base.FileMetadata, 0, len(files)+1)
	if front {
		out = append(out, f)
	}
	out = append(out, files...)
	if !front {
		out = append(out, f)
	}
	return out
}

// withoutFile returns a new list: files but for number fn; false when fn
// is not among them.
func withoutFile(files []*base.FileMetadata, fn base.FileNum) ([]*base.FileMetadata, bool) {
	for i, f := range files {
		if f.FileNum == fn {
			return slices.Concat(files[:i], files[i+1:]), true
		}
	}
	return nil, false
}

// apply builds a new version with edit applied. The new version copies what
// the edit touches — the guard list of a level whose guards or guard files
// change, the file list of a group that gains or loses a file — and shares
// every other slice with v, so an install costs allocations by the size of
// the edit, not of the tree. That is safe because a version never writes
// into a file list: withFile and withoutFile build new ones, exactly sized,
// and a shared guard list is copied (ownGuards) before an element is set.
// Guards are inserted before files so that files added in the same edit
// attach to the new guards.
//
// apply keeps the age order of a group (see version): a file added to a
// level from which the same edit deletes files is the output of an in-place
// rewrite and goes to the front of its group, where its inputs were — they
// were the whole group when the unit claimed it, so anything left behind
// them arrived from the level above while the rewrite ran and is newer.
// Every other file is a fragment from the level above, newer than all its
// group holds, and is appended. (The outputs of one rewrite share no key,
// so it does not matter which of them ends up first.) The rule reads nothing
// but the edit, so manifest replay rebuilds the same order.
func (v *version) apply(edit *manifest.VersionEdit, numLevels int) (*version, error) {
	nv := &version{l0: v.l0, levels: append([]guardedLevel(nil), v.levels...)}
	for l := range nv.levels {
		nv.levels[l].shared = true
	}

	if len(edit.NewGuards) > 0 {
		byLevel := map[int][][]byte{}
		for _, g := range edit.NewGuards {
			if g.Level < 1 || g.Level >= numLevels {
				return nil, fmt.Errorf("flsm: guard at invalid level %d", g.Level)
			}
			byLevel[g.Level] = append(byLevel[g.Level], g.Key)
		}
		for level, keys := range byLevel {
			nv.insertGuards(level, keys)
		}
	}
	for _, g := range edit.DeletedGuards {
		if g.Level < 1 || g.Level >= numLevels {
			return nil, fmt.Errorf("flsm: guard deletion at invalid level %d", g.Level)
		}
		nv.deleteGuard(g.Level, g.Key)
	}
	rewritten := make([]bool, numLevels)
	for _, d := range edit.DeletedFiles {
		if !nv.removeFile(d.Level, d.FileNum) {
			return nil, fmt.Errorf("flsm: deleted file %d not found at level %d", d.FileNum, d.Level)
		}
		rewritten[d.Level] = true
	}
	l0Added := false
	for i := range edit.NewFiles {
		nf := &edit.NewFiles[i]
		if nf.Level < 0 || nf.Level >= numLevels {
			return nil, fmt.Errorf("flsm: new file at invalid level %d", nf.Level)
		}
		meta := nf.Meta
		nv.addFile(nf.Level, &meta, rewritten[nf.Level])
		l0Added = l0Added || nf.Level == 0
	}
	if l0Added {
		// addFile made the list nv's own.
		slices.SortFunc(nv.l0, func(a, b *base.FileMetadata) int { return cmp.Compare(b.FileNum, a.FileNum) })
	}
	for l := range nv.levels {
		nv.levels[l].files = nv.levels[l].fileCount()
		nv.levels[l].size = nv.levels[l].totalBytes()
	}
	return nv, nil
}

// insertGuards adds a batch of guard keys to a level in one merge pass and
// hands the files of every group a new guard falls in to the refined
// intervals; the other groups keep their file lists. Callers guarantee (via
// the straddle check at commit time) that no existing file spans a new
// boundary. A single merge keeps recovery-snapshot application linear in the
// number of guards rather than quadratic.
func (v *version) insertGuards(level int, keys [][]byte) {
	gl := &v.levels[level]
	fresh := keys[:0:0]
	for _, k := range keys {
		if !gl.hasGuard(k) {
			fresh = append(fresh, append([]byte(nil), k...))
		}
	}
	if len(fresh) == 0 {
		return
	}
	slices.SortFunc(fresh, bytes.Compare)
	fresh = slices.CompactFunc(fresh, bytes.Equal)

	merged := make([]guard.Guard, 0, len(gl.guards)+len(fresh))
	// owner is the position in merged of the old group being refined (-1:
	// the sentinel); the guards after it in merged are the new ones inside
	// its interval. Every file of the group re-attaches by its smallest user
	// key, in order, so each refined group keeps its age order.
	owner := -1
	resplit := func() {
		files := gl.sentinel
		if owner >= 0 {
			files = merged[owner].Files
		}
		sub := merged[owner+1:]
		if len(sub) == 0 || len(files) == 0 {
			return
		}
		var kept []*base.FileMetadata
		for _, f := range files {
			if i := guard.FindGuard(sub, f.SmallestUserKey()); i >= 0 {
				sub[i].Files = append(sub[i].Files, f)
			} else {
				kept = append(kept, f)
			}
		}
		if owner >= 0 {
			merged[owner].Files = kept
		} else {
			gl.sentinel = kept
		}
	}
	gi, fi := 0, 0
	for gi < len(gl.guards) || fi < len(fresh) {
		if fi < len(fresh) && (gi == len(gl.guards) || bytes.Compare(fresh[fi], gl.guards[gi].Key) < 0) {
			merged = append(merged, guard.Guard{Key: fresh[fi]})
			fi++
			continue
		}
		resplit()
		owner = len(merged)
		merged = append(merged, gl.guards[gi])
		gi++
	}
	resplit()
	gl.guards, gl.shared = merged, false
}

// deleteGuard removes a guard, folding its files into the preceding
// interval (§3.3: sstables of a deleted guard are re-attached to
// neighbours; compaction-generated edits only delete empty guards). The two
// groups share no key, so listing one after the other keeps the age order.
func (v *version) deleteGuard(level int, key []byte) {
	gl := &v.levels[level]
	i := sort.Search(len(gl.guards), func(i int) bool {
		return bytes.Compare(gl.guards[i].Key, key) >= 0
	})
	if i >= len(gl.guards) || !bytes.Equal(gl.guards[i].Key, key) {
		return
	}
	if files := gl.guards[i].Files; len(files) > 0 {
		_, before := gl.group(i)
		gl.setFiles(i-1, slices.Concat(before, files))
	}
	gl.ownGuards()
	gl.guards = append(gl.guards[:i], gl.guards[i+1:]...)
}

// removeFile deletes a file from a level, wherever it is attached.
func (v *version) removeFile(level int, fn base.FileNum) bool {
	if level == 0 {
		l0, ok := withoutFile(v.l0, fn)
		if ok {
			v.l0 = l0
		}
		return ok
	}
	gl := &v.levels[level]
	for i := 0; i <= len(gl.guards); i++ {
		_, files := gl.group(i)
		if files, ok := withoutFile(files, fn); ok {
			gl.setFiles(i-1, files)
			return true
		}
	}
	return false
}

// addFile attaches a file to its guard at a level (or to L0): behind the
// group's files, or with front before them.
func (v *version) addFile(level int, f *base.FileMetadata, front bool) {
	if level == 0 {
		v.l0 = withFile(v.l0, f, false)
		return
	}
	gl := &v.levels[level]
	idx := guard.FindGuard(gl.guards, f.SmallestUserKey())
	_, files := gl.group(idx + 1)
	gl.setFiles(idx, withFile(files, f, front))
}

// straddles reports whether any file at the level spans key (file.smallest
// < key <= file.largest): such a file blocks committing key as a guard.
func (gl *guardedLevel) straddles(key []byte) bool {
	check := func(files []*base.FileMetadata) bool {
		for _, f := range files {
			if bytes.Compare(f.SmallestUserKey(), key) < 0 &&
				bytes.Compare(f.LargestUserKey(), key) >= 0 {
				return true
			}
		}
		return false
	}
	if check(gl.sentinel) {
		return true
	}
	for i := range gl.guards {
		if check(gl.guards[i].Files) {
			return true
		}
	}
	return false
}

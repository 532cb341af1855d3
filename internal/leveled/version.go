// Package leveled implements the classic leveled log-structured merge tree
// (§2.2): every level above L0 holds sstables with disjoint key ranges, and
// compaction rewrites overlapping sstables in the next level. It is the
// baseline PebblesDB is measured against; the LevelDB, HyperLevelDB and
// RocksDB presets are configurations of this tree.
package leveled

import (
	"bytes"
	"fmt"
	"sort"

	"pebblesdb/internal/base"
	"pebblesdb/internal/manifest"
)

// version is an immutable snapshot of the file layout. files[0] is sorted
// by file number descending (newest first); deeper levels are sorted by
// smallest key and are disjoint in user-key ranges. As a treebase.View each
// of those levels is a run of one-table groups under no guard. size[l] is
// the bytes level l holds.
type version struct {
	files [][]*base.FileMetadata
	size  []int64
}

func (v *version) L0() []*base.FileMetadata { return v.files[0] }

func (v *version) Groups(level int) int { return len(v.files[level]) }

func (v *version) Group(level, i int) ([]byte, []*base.FileMetadata) {
	return nil, v.files[level][i : i+1]
}

// Find binary-searches the level for the first file ending at or after
// ukey. A file whose upper bound is an exclusive range-del sentinel at
// exactly ukey does not contain ukey — the neighbor starting at ukey does —
// so the search treats such files as ending before ukey.
func (v *version) Find(level int, ukey []byte) (int, []*base.FileMetadata) {
	files := v.files[level]
	i := sort.Search(len(files), func(i int) bool {
		c := bytes.Compare(files[i].LargestUserKey(), ukey)
		if c != 0 {
			return c > 0
		}
		return !files[i].LargestExclusive()
	})
	if i < len(files) && bytes.Compare(files[i].SmallestUserKey(), ukey) <= 0 {
		return i, files[i : i+1]
	}
	return i, nil
}

// Span prunes the files outside b; in a sorted disjoint level the files
// overlapping b are contiguous.
func (v *version) Span(level int, b base.Bounds) (lo, hi int) {
	files := v.files[level]
	hi = len(files)
	if b.Lower != nil {
		lo = sort.Search(hi, func(i int) bool { return bytes.Compare(files[i].LargestUserKey(), b.Lower) >= 0 })
	}
	if b.Upper != nil {
		hi = lo + sort.Search(hi-lo, func(i int) bool { return bytes.Compare(files[lo+i].SmallestUserKey(), b.Upper) >= 0 })
	}
	return lo, hi
}

func newVersion(numLevels int) *version {
	return &version{files: make([][]*base.FileMetadata, numLevels), size: make([]int64, numLevels)}
}

// apply builds a new version from v with edit applied.
func (v *version) apply(edit *manifest.VersionEdit, numLevels int) (*version, error) {
	nv := newVersion(numLevels)
	deleted := make(map[base.FileNum]bool, len(edit.DeletedFiles))
	deletedLevel := make(map[base.FileNum]int, len(edit.DeletedFiles))
	for _, d := range edit.DeletedFiles {
		deleted[d.FileNum] = true
		deletedLevel[d.FileNum] = d.Level
	}
	for l := 0; l < numLevels; l++ {
		for _, f := range v.files[l] {
			if deleted[f.FileNum] && deletedLevel[f.FileNum] == l {
				continue
			}
			nv.files[l] = append(nv.files[l], f)
		}
	}
	for i := range edit.NewFiles {
		nf := &edit.NewFiles[i]
		if nf.Level < 0 || nf.Level >= numLevels {
			return nil, fmt.Errorf("leveled: new file at invalid level %d", nf.Level)
		}
		meta := nf.Meta // copy
		nv.files[nf.Level] = append(nv.files[nf.Level], &meta)
	}
	sort.Slice(nv.files[0], func(i, j int) bool {
		return nv.files[0][i].FileNum > nv.files[0][j].FileNum
	})
	for l := 1; l < numLevels; l++ {
		fs := nv.files[l]
		sort.Slice(fs, func(i, j int) bool {
			return base.InternalCompare(fs[i].Smallest, fs[j].Smallest) < 0
		})
	}
	for l, fs := range nv.files {
		for _, f := range fs {
			nv.size[l] += int64(f.Size)
		}
	}
	return nv, nil
}

// allowedSeeks follows LevelDB: one compaction-triggering seek budget unit
// per 16 KB of file, floored at 100.
func allowedSeeks(size uint64) int {
	n := int(size / (16 << 10))
	if n < 100 {
		n = 100
	}
	return n
}

// overlaps returns the files in the (sorted, disjoint) level whose user-key
// ranges intersect [lo, hi] (inclusive).
func overlaps(files []*base.FileMetadata, lo, hi []byte) []*base.FileMetadata {
	var out []*base.FileMetadata
	for _, f := range files {
		if bytes.Compare(f.LargestUserKey(), lo) < 0 {
			continue
		}
		if bytes.Compare(f.SmallestUserKey(), hi) > 0 {
			continue
		}
		out = append(out, f)
	}
	return out
}

// rangeOfFiles returns the smallest and largest user keys across files.
func rangeOfFiles(files []*base.FileMetadata) (lo, hi []byte) {
	for _, f := range files {
		if lo == nil || bytes.Compare(f.SmallestUserKey(), lo) < 0 {
			lo = f.SmallestUserKey()
		}
		if hi == nil || bytes.Compare(f.LargestUserKey(), hi) > 0 {
			hi = f.LargestUserKey()
		}
	}
	return lo, hi
}

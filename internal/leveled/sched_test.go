package leveled

import (
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/manifest"
)

func fabMeta(fn base.FileNum, size uint64, lo, hi string) base.FileMetadata {
	return base.FileMetadata{
		FileNum:  fn,
		Size:     size,
		Smallest: base.MakeInternalKey(nil, []byte(lo), 100, base.KindSet),
		Largest:  base.MakeInternalKey(nil, []byte(hi), 1, base.KindSet),
	}
}

// openSchedTree fabricates a level 1 at twice its size threshold (four
// 32 KB files against LevelBaseBytes 64 KB) over a populated level 2, so
// two units are claimable at once and neither is a trivial move.
func openSchedTree(t *testing.T) *testTree {
	t.Helper()
	tree, _ := openTestTree(t)
	edit := &manifest.VersionEdit{
		NewFiles: []manifest.NewFileEntry{
			{Level: 1, Meta: fabMeta(101, 32<<10, "a0", "a9")},
			{Level: 1, Meta: fabMeta(102, 32<<10, "b0", "b9")},
			{Level: 1, Meta: fabMeta(103, 32<<10, "c0", "c9")},
			{Level: 1, Meta: fabMeta(104, 32<<10, "d0", "d9")},
			{Level: 2, Meta: fabMeta(201, 8<<10, "a0", "a5")},
			{Level: 2, Meta: fabMeta(202, 8<<10, "b0", "b5")},
			{Level: 2, Meta: fabMeta(203, 8<<10, "c0", "c5")},
			{Level: 2, Meta: fabMeta(204, 8<<10, "d0", "d5")},
		},
	}
	applyEdit(t, tree, edit)
	return tree
}

// applyEdit installs a fabricated edit in the layout only: the scheduler
// plans against it, the core never reads it.
func applyEdit(t *testing.T, tree *testTree, edit *manifest.VersionEdit) {
	t.Helper()
	if _, err := tree.l.Apply(edit); err != nil {
		t.Fatal(err)
	}
}

// TestParallelClaimsDisjointFiles: two consecutive picks on the same
// level pair own disjoint input+target file sets, and releasing both
// restores a fully unclaimed scheduler. That the core counts two such units
// as two (PeakLevelUnits, PeakUnitsInflight) is the core suite's
// ParallelUnits case.
func TestParallelClaimsDisjointFiles(t *testing.T) {
	tree := openSchedTree(t)
	defer tree.Close()

	c1 := tree.l.pickLocked()
	c2 := tree.l.pickLocked()
	if c1 == nil || c2 == nil {
		t.Fatalf("expected two concurrent units, got %v / %v", c1, c2)
	}
	if c1.level != 1 || c2.level != 1 {
		t.Fatalf("both units should source level 1, got %d and %d", c1.level, c2.level)
	}

	seen := map[base.FileNum]bool{}
	for _, c := range []*compaction{c1, c2} {
		for _, f := range append(append([]*base.FileMetadata(nil), c.inputs...), c.targets...) {
			if seen[f.FileNum] {
				t.Fatalf("file %d claimed by both units", f.FileNum)
			}
			seen[f.FileNum] = true
		}
	}

	tree.l.releaseLocked(c1, false)
	tree.l.releaseLocked(c2, false)
	if len(tree.l.claimed) != 0 {
		t.Errorf("claims not fully released: %v", tree.l.claimed)
	}
}

// TestL0PriorityAndExclusivity: with L0 over its trigger, the first pick
// is the exclusive L0 unit even when deeper levels are over threshold
// too; a second pick must not touch L0 or any claimed L1 target.
func TestL0PriorityAndExclusivity(t *testing.T) {
	tree := openSchedTree(t)
	defer tree.Close()

	edit := &manifest.VersionEdit{}
	for i := 0; i < tree.l.cfg.L0CompactionTrigger; i++ {
		edit.NewFiles = append(edit.NewFiles, manifest.NewFileEntry{
			Level: 0, Meta: fabMeta(base.FileNum(300+i), 8<<10, "a0", "b9"),
		})
	}
	applyEdit(t, tree, edit)

	c1 := tree.l.pickLocked()
	if c1 == nil || c1.level != 0 {
		t.Fatalf("first pick should be the L0 unit, got %+v", c1)
	}
	c2 := tree.l.pickLocked()
	if c2 == nil {
		t.Fatal("disjoint level-1 work should remain claimable during the L0 unit")
	}
	if c2.level == 0 {
		t.Fatal("second pick must not claim L0 again")
	}
	for _, f := range c1.targets {
		for _, g := range append(append([]*base.FileMetadata(nil), c2.inputs...), c2.targets...) {
			if f.FileNum == g.FileNum {
				t.Fatalf("file %d shared between the L0 unit and unit %d", f.FileNum, c2.level)
			}
		}
	}
	tree.l.releaseLocked(c1, false)
	tree.l.releaseLocked(c2, false)
}

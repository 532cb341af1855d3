package flsm

import (
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/manifest"
)

// fabMeta fabricates file metadata for pick/claim tests: the scheduler
// only reads key ranges and sizes, so no table IO is needed.
func fabMeta(fn base.FileNum, size uint64, lo, hi string) base.FileMetadata {
	return base.FileMetadata{
		FileNum:  fn,
		Size:     size,
		Smallest: base.MakeInternalKey(nil, []byte(lo), 100, base.KindSet),
		Largest:  base.MakeInternalKey(nil, []byte(hi), 1, base.KindSet),
	}
}

// openSchedTree builds a tree whose level 1 is over its size threshold
// with four committed guard groups (sentinel + b + c + d), each holding
// one 32 KB file — LevelBaseBytes is 64 KB, so the level scores 2.0.
func openSchedTree(t *testing.T) *testTree {
	t.Helper()
	cfg := testConfig()
	cfg.CompactionUnitGuards = 2
	tree := openTree(t, cfg, &fakeHost{smallest: base.MaxSeqNum})
	edit := &manifest.VersionEdit{
		NewGuards: []manifest.GuardEntry{
			{Level: 1, Key: []byte("b")},
			{Level: 1, Key: []byte("c")},
			{Level: 1, Key: []byte("d")},
		},
		NewFiles: []manifest.NewFileEntry{
			{Level: 1, Meta: fabMeta(101, 32<<10, "a0", "a9")},
			{Level: 1, Meta: fabMeta(102, 32<<10, "b0", "b9")},
			{Level: 1, Meta: fabMeta(103, 32<<10, "c0", "c9")},
			{Level: 1, Meta: fabMeta(104, 32<<10, "d0", "d9")},
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

// TestParallelUnitsSameLevelDisjoint is the scheduler-level guarantee
// behind intra-level parallel compaction: two consecutive picks claim
// disjoint guard groups of the same level, and releasing both units
// restores a fully unclaimed scheduler. That the core counts two such units
// as two (PeakLevelUnits, PeakUnitsInflight) is the core suite's
// ParallelUnits case.
func TestParallelUnitsSameLevelDisjoint(t *testing.T) {
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
		for _, s := range c.sources {
			for _, f := range s.files {
				if seen[f.FileNum] {
					t.Fatalf("file %d claimed by both units", f.FileNum)
				}
				seen[f.FileNum] = true
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("the two units should cover all 4 files, got %d", len(seen))
	}

	// Both units write into level 2 and must share one output partition.
	if got := tree.l.inflight.writers[2]; got != 2 {
		t.Errorf("writers[2] = %d, want 2", got)
	}
	if &c1.sources[0].partition != &c2.sources[0].partition &&
		len(c1.sources[0].partition) != len(c2.sources[0].partition) {
		t.Errorf("concurrent units into one level must share the partition set")
	}

	tree.l.releaseLocked(c1, false)
	tree.l.releaseLocked(c2, false)
	if len(tree.l.inflight.srcGuards[1]) != 0 {
		t.Errorf("srcGuards[1] not empty after release: %v", tree.l.inflight.srcGuards[1])
	}
	if tree.l.inflight.writers[2] != 0 || tree.l.inflight.partition[2] != nil {
		t.Errorf("level-2 writer state not released")
	}
}

// TestL0UnitIsExclusive: only one unit may own L0, and while it runs the
// level-1 groups stay independently claimable.
func TestL0UnitIsExclusive(t *testing.T) {
	tree := openSchedTree(t)
	defer tree.Close()

	edit := &manifest.VersionEdit{}
	for i := 0; i < tree.l.cfg.L0CompactionTrigger; i++ {
		edit.NewFiles = append(edit.NewFiles, manifest.NewFileEntry{
			Level: 0, Meta: fabMeta(base.FileNum(200+i), 8<<10, "a0", "d9"),
		})
	}
	applyEdit(t, tree, edit)

	c1 := tree.l.pickLocked()
	if c1 == nil || c1.level != 0 {
		t.Fatalf("first pick should be the L0 unit, got %+v", c1)
	}
	c2 := tree.l.pickLocked()
	if c2 == nil {
		t.Fatal("level-1 work should remain claimable during the L0 unit")
	}
	if c2.level == 0 {
		t.Fatal("second pick must not claim L0 again")
	}
	tree.l.releaseLocked(c1, false)
	tree.l.releaseLocked(c2, false)
}

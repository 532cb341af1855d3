package flsm

import (
	"fmt"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/treebase"
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

// pick takes the next unit the way the core does: what Pick returns is
// marked held.
func pick(t *testing.T, tree *testTree, held *treebase.Claims) *treebase.Unit {
	t.Helper()
	u := tree.l.Pick(false, *held)
	if u != nil {
		held.Mark(u)
	}
	return u
}

// TestConcurrentWritersShareThePartition is the FLSM half of intra-level
// parallel compaction (the claims half is the core suite's Claims case):
// two units draining disjoint guard groups of level 1 both write level 2,
// cut at one shared partition, and the partition dissolves with the last
// of them.
func TestConcurrentWritersShareThePartition(t *testing.T) {
	tree := openSchedTree(t)
	defer tree.Close()
	applyEdit(t, tree, &manifest.VersionEdit{NewGuards: []manifest.GuardEntry{{Level: 2, Key: []byte("c")}}})

	var held treebase.Claims
	u1, u2 := pick(t, tree, &held), pick(t, tree, &held)
	if u1 == nil || u2 == nil || u1.Level != 1 || u2.Level != 1 {
		t.Fatalf("expected two concurrent units out of level 1, got %+v / %+v", u1, u2)
	}
	if got := tree.l.inflight.writers[2]; got != 2 {
		t.Errorf("writers[2] = %d, want 2", got)
	}
	for _, u := range []*treebase.Unit{u1, u2} {
		for _, m := range u.Merges {
			if got := fmt.Sprintf("%q", m.Cut.Keys); got != `["c"]` {
				t.Errorf("merge of guard %q cuts at %s, want the level's shared partition [\"c\"]", m.Guard, got)
			}
		}
	}
	tree.l.Release(u1, false)
	if tree.l.inflight.writers[2] != 1 || tree.l.inflight.partition[2] == nil {
		t.Errorf("the partition must outlive its first writer")
	}
	tree.l.Release(u2, false)
	if tree.l.inflight.writers[2] != 0 || tree.l.inflight.partition[2] != nil {
		t.Errorf("level-2 writer state not released")
	}
}

// TestClaimFollowsTableAcrossGuardSplit: guards are committed by whichever
// unit next writes a level (§3.3), also inside a group a running unit holds.
// The tables that move under the new guard are still that unit's, so the
// group they land in is busy: the triggers may neither count it nor hand it
// out again.
func TestClaimFollowsTableAcrossGuardSplit(t *testing.T) {
	tree := openTree(t, testConfig(), &fakeHost{smallest: base.MaxSeqNum})
	defer tree.Close()
	// Two tables under level 1's sentinel, 96 KB against LevelBaseBytes 64 KB.
	applyEdit(t, tree, &manifest.VersionEdit{NewFiles: []manifest.NewFileEntry{
		{Level: 1, Meta: fabMeta(101, 48<<10, "a0", "a9")},
		{Level: 1, Meta: fabMeta(102, 48<<10, "m0", "m9")},
	}})
	var held treebase.Claims
	u1 := pick(t, tree, &held)
	if u1 == nil || u1.Level != 1 || len(u1.Merges) != 1 || len(u1.Merges[0].Files) != 2 {
		t.Fatalf("first unit %+v, want the sentinel of level 1 with both tables", u1)
	}

	// A peer commits guard k: no table straddles it, m0-m9 moves under it.
	applyEdit(t, tree, &manifest.VersionEdit{NewGuards: []manifest.GuardEntry{{Level: 1, Key: []byte("k")}}})
	if key, files := tree.pinned().Group(1, 1); string(key) != "k" || len(files) != 1 || files[0].FileNum != 102 {
		t.Fatalf("guard %q holds %v, want table 102 under k", key, files)
	}
	if n := tree.l.Claimable(64, held); n != 0 {
		t.Errorf("Claimable = %d with both tables of the level held, want 0", n)
	}
	if u2 := pick(t, tree, &held); u2 != nil {
		t.Errorf("a second unit claimed guards %q..%q (%d merges) while the first holds their tables", u2.Lo, u2.Hi, len(u2.Merges))
	}
	if n := tree.l.Claimable(64, treebase.Claims{}); n == 0 {
		t.Errorf("Claimable = 0 against no claims: the level is over its threshold")
	}
}

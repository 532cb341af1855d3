package flsm

import (
	"fmt"
	"math/rand"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/guard"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/race"
)

func shareMeta(fn int, lo, hi string) *base.FileMetadata {
	return &base.FileMetadata{
		FileNum:  base.FileNum(fn),
		Size:     1000,
		Smallest: base.MakeInternalKey(nil, []byte(lo), 1, base.KindSet),
		Largest:  base.MakeInternalKey(nil, []byte(hi), 1, base.KindSet),
	}
}

// guardedVersion builds a version with guards guards at level 2, every
// tenth holding one table.
func guardedVersion(t *testing.T, cfg *base.Config, guards int) *version {
	t.Helper()
	var edit manifest.VersionEdit
	for g := 0; g < guards; g++ {
		key := fmt.Sprintf("g%06d", g)
		edit.NewGuards = append(edit.NewGuards, manifest.GuardEntry{Level: 2, Key: []byte(key)})
		if g%10 == 0 {
			edit.NewFiles = append(edit.NewFiles, manifest.NewFileEntry{Level: 2, Meta: *shareMeta(1000+g, key+"a", key+"z")})
		}
	}
	v, err := newVersion(cfg.NumLevels).apply(&edit, cfg.NumLevels)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// poison stands in the spare capacity of every slice of a poisoned version:
// a table nobody wrote, under keys no guard interval holds.
var poison = shareMeta(0xdead, "\xff\xffpoison", "\xff\xffpoison")

func poisoned(files []*base.FileMetadata) []*base.FileMetadata {
	out := make([]*base.FileMetadata, len(files), len(files)+3)
	copy(out, files)
	for i := len(files); i < cap(out); i++ {
		out[:cap(out)][i] = poison
	}
	return out
}

// poisonVersion gives every slice of v spare capacity filled with poison: a
// child that appends to, or shifts within, a slice it shares with v instead
// of building its own writes where the snapshot sees it.
func poisonVersion(v *version) {
	v.l0 = poisoned(v.l0)
	for l := range v.levels {
		gl := &v.levels[l]
		gl.sentinel = poisoned(gl.sentinel)
		guards := make([]guard.Guard, len(gl.guards), len(gl.guards)+3)
		for i, g := range gl.guards {
			guards[i] = guard.Guard{Key: g.Key, Files: poisoned(g.Files)}
		}
		for i := len(guards); i < cap(guards); i++ {
			guards[:cap(guards)][i] = guard.Guard{Key: poison.SmallestUserKey(), Files: []*base.FileMetadata{poison}}
		}
		gl.guards = guards
	}
}

// snapshotVersion renders every slice of v up to its capacity.
func snapshotVersion(v *version) string {
	list := func(files []*base.FileMetadata) string {
		s := fmt.Sprintf("%d[", len(files))
		for _, f := range files[:cap(files)] {
			s += fmt.Sprintf(" %d", f.FileNum)
		}
		return s + " ]"
	}
	s := "l0 " + list(v.l0) + "\n"
	for l := range v.levels {
		gl := &v.levels[l]
		s += fmt.Sprintf("L%d sentinel %s guards %d\n", l, list(gl.sentinel), len(gl.guards))
		for _, g := range gl.guards[:cap(gl.guards)] {
			s += fmt.Sprintf("  %q %s\n", g.Key, list(g.Files))
		}
	}
	return s
}

// TestApplySharesUntouchedGuards pins the two halves of copy-on-write
// installs. What an install allocates depends on its edit, not on how many
// guards the tree has: a version shares the file list of every group the
// edit does not touch with its parent. And sharing is safe: on a tree that
// flushes, compacts, commits guards into populated levels and rewrites in
// place, with every slice of each parent version given spare capacity full
// of poison, no install writes into its parent — neither the lists it
// shows nor the capacity behind them — and every child passes the core's
// invariants, which read each table of each group.
func TestApplySharesUntouchedGuards(t *testing.T) {
	cfg := testConfig()
	if !race.Enabled {
		edit := &manifest.VersionEdit{
			DeletedFiles: []manifest.DeletedFileEntry{{Level: 2, FileNum: 1000}},
			NewFiles: []manifest.NewFileEntry{
				{Level: 2, Meta: *shareMeta(7, "g000000a", "g000000m")},
				{Level: 2, Meta: *shareMeta(8, "g000020a", "g000020m")},
				{Level: 0, Meta: *shareMeta(9, "a", "z")},
			},
		}
		var allocs [2]float64
		for i, guards := range []int{100, 20000} {
			v := guardedVersion(t, cfg, guards)
			allocs[i] = testing.AllocsPerRun(50, func() {
				if _, err := v.apply(edit, cfg.NumLevels); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("allocs %v", allocs)
		if allocs[1] > allocs[0] || allocs[0] > 16 {
			t.Errorf("one install allocates %v times with 100 guards and %v with 20000: want the same handful", allocs[0], allocs[1])
		}
	}

	tree, _ := openTestTree(t)
	defer tree.Close()
	rng := rand.New(rand.NewSource(5))
	seq := base.SeqNum(0)
	installs := 0
	for round := 0; round < 40; round++ {
		kvs := map[string]string{}
		for i := 0; i < 300; i++ {
			kvs[fmt.Sprintf("key%05d", rng.Intn(20000))] = fmt.Sprintf("value-%d-%d", round, i)
		}
		step := func(what string, do func()) {
			parent := tree.pinned()
			poisonVersion(parent)
			before := snapshotVersion(parent)
			do()
			if tree.pinned() == parent {
				return
			}
			installs++
			if after := snapshotVersion(parent); after != before {
				t.Fatalf("round %d: the install after %s wrote into its parent version:\nbefore\n%s\nafter\n%s", round, what, before, after)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("round %d, after %s: %v", round, what, err)
			}
		}
		step("a flush", func() { flushBatch(t, tree, kvs, &seq) })
		for did := true; did; {
			step("a compaction", func() {
				var err error
				if did, err = tree.CompactOnce(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	m := tree.Metrics()
	guards := 0
	for _, n := range m.GuardsPerLevel {
		guards += n
	}
	if installs < 80 || guards < 20 || m.InPlaceMerges == 0 {
		t.Fatalf("%d installs, %d guards, %d in-place merges: the run was meant to cover appends, guard commits and rewrites", installs, guards, m.InPlaceMerges)
	}
}

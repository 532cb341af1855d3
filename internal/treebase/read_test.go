package treebase

import (
	"fmt"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/vfs"
)

// stackView is a View of one group per level: level 0 and every deeper
// level hold the tables listed for them, and every key lands in them.
type stackView struct{ levels [][]*base.FileMetadata }

func (v *stackView) L0() []*base.FileMetadata { return v.levels[0] }
func (v *stackView) Groups(int) int           { return 1 }
func (v *stackView) Group(level, _ int) ([]byte, []*base.FileMetadata) {
	return nil, v.levels[level]
}
func (v *stackView) Find(level int, _ []byte) (int, []*base.FileMetadata) {
	return 0, v.levels[level]
}
func (v *stackView) Span(int, base.Bounds) (int, int) { return 0, 1 }

// missLayout is a layout that budgets Get misses and records them.
type missLayout struct {
	testLayout
	missed []string
}

func (l *missLayout) ChargeMiss(level int, f *base.FileMetadata) {
	l.missed = append(l.missed, fmt.Sprintf("%d/%s", level, f.SmallestUserKey()))
}

// TestGetMissCharging pins which Get the core reports to a MissCharger: the
// first table searched in vain, unless it sits in level 0 or the last level
// — a later miss is then not reported in its place — and nothing when the
// layout is no MissCharger or seek compaction is off.
func TestGetMissCharging(t *testing.T) {
	for _, tc := range []struct {
		name      string
		layout    Layout
		threshold int
		want      string
	}{
		{"miss-charger", &missLayout{}, 10, "[1/b 1/b 2/c]"},
		{"no-miss-charger", &testLayout{}, 10, ""},
		{"seek-compaction-off", &missLayout{}, -1, "[]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := &base.Config{NumLevels: 4, BloomBitsPerKey: -1, SeekCompactionThreshold: tc.threshold}
			cfg.EnsureDefaults()
			c, err := Open(Kind{Name: "test"}, cfg, vfs.NewMem(), "db", testHost{}, tc.layout, &stackView{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// One table per level, each spanning up to z: a Get of a deeper
			// level's key searches it in vain.
			table := func(seq base.SeqNum, ukeys ...string) []*base.FileMetadata {
				ob := c.newOutputBuilder()
				for _, k := range ukeys {
					if err := ob.Add(testEntry{k, seq}.ikey(), []byte(k)); err != nil {
						t.Fatal(err)
					}
				}
				metas, err := ob.Finish()
				if err != nil || len(metas) != 1 {
					t.Fatalf("building a table: %v, %d tables", err, len(metas))
				}
				return metas
			}
			c.view = &stackView{levels: [][]*base.FileMetadata{
				table(4, "a", "e", "z"),
				table(3, "b", "f", "z"),
				table(2, "c", "g", "z"),
				table(1, "d", "h", "z"),
			}}
			for _, k := range []string{
				"a", // found in level 0: no miss
				"f", // first miss in level 0: exempt, nothing reported
				"h", // found in the last level past three misses, the first in level 0
				"A", // outside every table: nothing searched
			} {
				if _, _, err := c.Get([]byte(k), base.MaxSeqNum, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			// Without level 0 the first miss moves down: level 1 and level
			// 2 are reported, the last level is not.
			c.view.(*stackView).levels[0] = nil
			for _, k := range []string{"g", "b", "y"} { // level-1 miss, hit, miss everywhere
				if _, _, err := c.Get([]byte(k), base.MaxSeqNum, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			c.view.(*stackView).levels[1] = nil
			for _, k := range []string{"h", "c"} {
				if _, _, err := c.Get([]byte(k), base.MaxSeqNum, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			c.view.(*stackView).levels[2] = nil
			if _, _, err := c.Get([]byte("y"), base.MaxSeqNum, nil, nil); err != nil {
				t.Fatal(err)
			}
			if ml, ok := tc.layout.(*missLayout); ok {
				if got := fmt.Sprint(ml.missed); got != tc.want {
					t.Fatalf("misses reported: %s, want %s", got, tc.want)
				}
			}
		})
	}
}

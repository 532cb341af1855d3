package treebase

import (
	"fmt"
	"sync/atomic"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
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

func (l *missLayout) ChargeMiss(level int, f *base.FileMetadata) bool {
	l.missed = append(l.missed, fmt.Sprintf("%d/%s", level, f.SmallestUserKey()))
	return false
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
			c.cur.view = &stackView{levels: [][]*base.FileMetadata{
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
			c.cur.view.(*stackView).levels[0] = nil
			for _, k := range []string{"g", "b", "y"} { // level-1 miss, hit, miss everywhere
				if _, _, err := c.Get([]byte(k), base.MaxSeqNum, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			c.cur.view.(*stackView).levels[1] = nil
			for _, k := range []string{"h", "c"} {
				if _, _, err := c.Get([]byte(k), base.MaxSeqNum, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			c.cur.view.(*stackView).levels[2] = nil
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

// seqHost is a host whose committed sequence number a test moves.
type seqHost struct {
	testHost
	seq atomic.Uint64
}

func (h *seqHost) CommittedSeq() base.SeqNum { return base.SeqNum(h.seq.Load()) }

// TestGetSeekCharging pins which Get the core reports to a SeekCharger: one
// that consults two or more tables of one group — tables whose key range
// holds the key, a bloom negative included — charges that group, once per
// Get, at the first such level below level 0; a Get the newest table it
// consults answers charges nothing. And every charge carries the committed
// sequence number the host reports when the read is charged, not the read's
// own sequence.
func TestGetSeekCharging(t *testing.T) {
	for _, bloomBits := range []int{-1, 10} {
		t.Run(fmt.Sprintf("bloom=%d", bloomBits), func(t *testing.T) {
			cfg := &base.Config{NumLevels: 3, BloomBitsPerKey: bloomBits, SeekCompactionThreshold: 10}
			cfg.EnsureDefaults()
			host, layout := &seqHost{}, &testLayout{}
			c, err := Open(Kind{Name: "test"}, cfg, vfs.NewMem(), "db", host, layout, &stackView{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			table := func(seq base.SeqNum, ukeys ...string) *base.FileMetadata {
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
				return metas[0]
			}
			c.cur.view = &stackView{levels: [][]*base.FileMetadata{
				{table(10, "a", "p"), table(9, "a0", "p")},                                  // newest first
				{table(5, "b", "m", "z"), table(6, "c", "n", "z"), table(7, "d", "o", "z")}, // oldest first
				{table(2, "A", "A1", "w"), table(3, "A0", "q", "w")},
			}}
			get := func(k string) {
				t.Helper()
				if _, found, err := c.Get([]byte(k), base.MaxSeqNum, nil, nil); !found || err != nil {
					t.Fatalf("Get(%s): found=%v err=%v", k, found, err)
				}
			}
			for _, tc := range []struct{ ukey, want string }{
				{"a", "[]"},   // level 0
				{"d", "[]"},   // past both level-0 tables, each a group of its own: the newest level-1 table answers
				{"c", "[]"},   // the newest level-1 table's range does not hold c: the one consulted answers
				{"m", "[1/]"}, // past two level-1 tables
				{"q", "[1/]"}, // past all three, then past one at level 2 too: one charge, at level 1
				{"A1", "[2/]"},
				{"A0", "[]"},
			} {
				layout.charged = nil
				get(tc.ukey)
				if got := fmt.Sprint(layout.charged); got != tc.want {
					t.Errorf("Get(%s) charged %s, want %s", tc.ukey, got, tc.want)
				}
			}

			layout.seqs = nil
			host.seq.Add(1)
			get("m")
			get("m")
			host.seq.Add(1)
			get("m")
			if got, want := fmt.Sprint(layout.seqs), "[1 1 2]"; got != want {
				t.Errorf("Gets around two commits charged at committed numbers %s, want %s", got, want)
			}
		})
	}
}

// TestGetStopsAtFirstHit pins what a Get reads of a group of several tables,
// which a view lists oldest first: the newest table that holds a visible
// version of the key ends the search — the tables behind it are not probed
// — and range tombstones count from the tables searched so far only, which
// the age order makes the only ones that can cover the hit.
func TestGetStopsAtFirstHit(t *testing.T) {
	cfg := &base.Config{NumLevels: 3, BloomBitsPerKey: -1}
	cfg.EnsureDefaults()
	c, err := Open(Kind{Name: "test"}, cfg, vfs.NewMem(), "db", testHost{}, &testLayout{}, &stackView{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A table of one version per key, all at seq, under an optional range
	// tombstone [a, z) at del.
	table := func(seq, del base.SeqNum, ukeys ...string) *base.FileMetadata {
		ob := c.newOutputBuilder()
		for _, k := range ukeys {
			if err := ob.Add(testEntry{k, seq}.ikey(), []byte(fmt.Sprintf("%s@%d", k, seq))); err != nil {
				t.Fatal(err)
			}
		}
		if del != 0 {
			if err := ob.AddRangeDels([]rangedel.Tombstone{{Start: []byte("a"), End: []byte("z"), Seq: del}}); err != nil {
				t.Fatal(err)
			}
		}
		metas, err := ob.Finish()
		if err != nil || len(metas) != 1 {
			t.Fatalf("building a table: %v, %d tables", err, len(metas))
		}
		return metas[0]
	}
	c.cur.view = &stackView{levels: [][]*base.FileMetadata{
		nil,
		{table(1, 2, "k", "only-old", "x"), table(3, 0, "k", "x"), table(5, 6, "k", "y")},
		{table(0, 0, "below")},
	}}
	for _, tc := range []struct {
		ukey   string
		at     base.SeqNum
		want   string
		probed int64
	}{
		{"x", base.MaxSeqNum, "", 2},     // the newest table's tombstone at 6 covers x@3
		{"x", 5, "x@3", 2},               // ... which a read at 5 does not see; the tombstone at 2 behind the hit is not consulted
		{"k", base.MaxSeqNum, "", 1},     // k@5 under its own table's tombstone
		{"k", 5, "k@5", 1},               // first table searched
		{"k", 4, "k@3", 2},               // k@5 is not visible: on to the next
		{"k", 2, "", 3},                  // k@1 under the oldest table's tombstone at 2
		{"k", 1, "k@1", 3},               // only the oldest table holds a version this old
		{"only-old", 5, "", 3},           // covered at 2 by its own table
		{"below", base.MaxSeqNum, "", 2}, // not in the group (nor within its middle table's bounds), a tombstone over it: the descent ends
		{"below", 1, "below@0", 3},       // no visible tombstone: on to the last level
		{"y", base.MaxSeqNum, "", 1},     // y@5 under the tombstone at 6
	} {
		s := sstable.AcquireGetScratch()
		got, found, err := c.Get([]byte(tc.ukey), tc.at, nil, s)
		probed := s.Stats.TablesProbed
		sstable.ReleaseGetScratch(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want || found != (tc.want != "") || probed != tc.probed {
			t.Errorf("Get(%s) at %d = %q found=%v after %d tables, want %q after %d",
				tc.ukey, tc.at, got, found, probed, tc.want, tc.probed)
		}
	}
}

package treebase

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/vfs"
)

// testGroup is one hand-built group of level 1: the user keys [start, end)
// it spans, the guard key it reports and its tables.
type testGroup struct {
	start, end string // end "" = unbounded
	guard      []byte
	files      []*base.FileMetadata
}

// testView is a View whose level 1 is a hand-built run of groups; it need
// not tile the key space, so a seek can fall between groups or past the
// last.
type testView struct{ groups []testGroup }

func (v *testView) L0() []*base.FileMetadata { return nil }
func (v *testView) Groups(int) int           { return len(v.groups) }
func (v *testView) Group(_, i int) ([]byte, []*base.FileMetadata) {
	return v.groups[i].guard, v.groups[i].files
}
func (v *testView) Find(_ int, ukey []byte) (int, []*base.FileMetadata) {
	for i, g := range v.groups {
		if g.end == "" || string(ukey) < g.end {
			if string(ukey) >= g.start {
				return i, g.files
			}
			return i, nil
		}
	}
	return len(v.groups), nil
}
func (v *testView) Span(int, base.Bounds) (int, int) { return 0, len(v.groups) }

// testLayout records the seeks the core charges.
// testLayout records what each seek charge reports: level/guard in
// charged, the committed sequence number in seqs.
type testLayout struct {
	charged []string
	seqs    []base.SeqNum
}

func (l *testLayout) Apply(*manifest.VersionEdit) (View, error) { return &testView{}, nil }
func (l *testLayout) Claimable(int, Claims) int                 { return 0 }
func (l *testLayout) Pick(bool, Claims) *Unit                   { return nil }
func (l *testLayout) Release(*Unit, bool)                       {}
func (l *testLayout) WantGuard([]byte) bool                     { return false }
func (l *testLayout) Ingest([]byte)                             {}
func (l *testLayout) ChargeSeek(level int, guard []byte, seq base.SeqNum) (bool, bool) {
	l.charged = append(l.charged, fmt.Sprintf("%d/%s", level, guard))
	l.seqs = append(l.seqs, seq)
	return false, false
}
func (l *testLayout) SeekPending() int { return 0 }

type testHost struct{}

func (testHost) SmallestSnapshot() base.SeqNum { return base.MaxSeqNum }
func (testHost) CommittedSeq() base.SeqNum     { return 0 }
func (testHost) ScheduleCompaction()           {}

type testEntry struct {
	ukey string
	seq  base.SeqNum
}

func (e testEntry) ikey() []byte {
	return base.MakeInternalKey(nil, []byte(e.ukey), e.seq, base.KindSet)
}

// levelIterFixture is a core over an empty tree plus a hand-built level:
//
//	group 0  [-, b)  sentinel, no tables
//	group 1  [b, e)  guard "b", one table
//	group 2  [e, g)  guard "e", no tables
//	group 3  [g, m)  guard "g", two tables overlapping in keys and sequences
//	group 4  [m, p)  guard "m", one table
//	group 5  [q, t)  guard "q", three tables overlapping in keys
//
// Nothing covers [p, q), where a seek lands between two groups, nor
// [t, +inf), where it lands past the last.
type levelIterFixture struct {
	c      *Core
	layout *testLayout
	view   *testView
	all    []testEntry // every entry, in internal-key order
}

func newLevelIterFixture(t *testing.T) *levelIterFixture {
	return newLevelIterFixtureOn(t, vfs.NewMem(), 0)
}

// newLevelIterFixtureOn builds the fixture on fs with a block cache of the
// given size (0: the default).
func newLevelIterFixtureOn(t *testing.T, fs vfs.FS, blockCache int64) *levelIterFixture {
	t.Helper()
	cfg := &base.Config{NumLevels: 3, BlockCacheSize: blockCache}
	cfg.EnsureDefaults()
	fx := &levelIterFixture{layout: &testLayout{}}
	c, err := Open(Kind{Name: "test"}, cfg, fs, "db", testHost{}, fx.layout, &testView{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fx.c = c

	table := func(entries ...testEntry) *base.FileMetadata {
		sort.Slice(entries, func(i, j int) bool { return base.InternalCompare(entries[i].ikey(), entries[j].ikey()) < 0 })
		ob := c.newOutputBuilder()
		for _, e := range entries {
			if err := ob.Add(e.ikey(), []byte(fmt.Sprintf("%s@%d", e.ukey, e.seq))); err != nil {
				t.Fatal(err)
			}
		}
		metas, err := ob.Finish()
		if err != nil || len(metas) != 1 {
			t.Fatalf("building a table: %v, %d tables", err, len(metas))
		}
		fx.all = append(fx.all, entries...)
		return metas[0]
	}
	fx.view = &testView{groups: []testGroup{
		{start: "", end: "b"},
		{start: "b", end: "e", guard: []byte("b"), files: []*base.FileMetadata{
			table(testEntry{"b", 1}, testEntry{"c", 2}, testEntry{"d", 3}),
		}},
		{start: "e", end: "g", guard: []byte("e")},
		{start: "g", end: "m", guard: []byte("g"), files: []*base.FileMetadata{
			table(testEntry{"g", 4}, testEntry{"i", 9}, testEntry{"k", 6}),
			table(testEntry{"h", 7}, testEntry{"i", 5}, testEntry{"k", 8}, testEntry{"l", 10}),
		}},
		{start: "m", end: "p", guard: []byte("m"), files: []*base.FileMetadata{
			table(testEntry{"m", 11}, testEntry{"o", 12}),
		}},
		{start: "q", end: "t", guard: []byte("q"), files: []*base.FileMetadata{
			table(testEntry{"q", 13}, testEntry{"r", 14}, testEntry{"s", 15}),
			table(testEntry{"q", 16}, testEntry{"r", 17}),
			table(testEntry{"r", 18}, testEntry{"s", 19}),
		}},
	}}
	sort.Slice(fx.all, func(i, j int) bool { return base.InternalCompare(fx.all[i].ikey(), fx.all[j].ikey()) < 0 })
	return fx
}

func (fx *levelIterFixture) iter(req IterRequest, parallel bool) *levelIter {
	n := len(fx.view.groups)
	return newLevelIter(fx.c, fx.view, 1, 0, n, parallel, req)
}

// at describes the iterator's position as an index into fx.all, -1 when
// it is not valid.
func (fx *levelIterFixture) at(t *testing.T, it *levelIter) int {
	t.Helper()
	if !it.Valid() {
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		return -1
	}
	for i, e := range fx.all {
		if base.InternalCompare(e.ikey(), it.Key()) == 0 {
			if want := fmt.Sprintf("%s@%d", e.ukey, e.seq); string(it.Value()) != want {
				t.Fatalf("value %q at key %s@%d, want %q", it.Value(), e.ukey, e.seq, want)
			}
			return i
		}
	}
	t.Fatalf("iterator at unknown key %x", it.Key())
	return -1
}

// TestLevelIterAgainstSortedRun sweeps seeks over every group edge — before
// the first group, inside empty groups, between the tables of the
// overlapping group, past the last group — and walks both ways from each
// landing, comparing every position with the flat sorted run of entries.
func TestLevelIterAgainstSortedRun(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			// Seeks fan out only where reads wait, so the parallel run is on
			// a filesystem whose reads do.
			slow := vfs.NewSlow(vfs.NewMem(), vfs.OpRead)
			fx := newLevelIterFixtureOn(t, slow, 0)
			if parallel {
				slow.SetDelay(200 * time.Microsecond)
			}
			var stats IterStats
			it := fx.iter(IterRequest{Stats: &stats}, parallel)
			defer func() {
				it.Close()
				if (stats.SeekFanOuts > 0) != parallel {
					t.Fatalf("%d seeks fanned out with parallel=%v", stats.SeekFanOuts, parallel)
				}
			}()
			n := len(fx.all)

			i := 0
			for it.First(); it.Valid(); it.Next() {
				if got := fx.at(t, it); got != i {
					t.Fatalf("forward step %d is at entry %d", i, got)
				}
				i++
			}
			if i != n {
				t.Fatalf("forward scan saw %d entries, want %d", i, n)
			}
			i = n - 1
			for it.Last(); it.Valid(); it.Prev() {
				if got := fx.at(t, it); got != i {
					t.Fatalf("backward step %d is at entry %d", n-1-i, got)
				}
				i--
			}
			if i != -1 {
				t.Fatalf("backward scan stopped at entry %d", i)
			}

			for _, ukey := range []string{"a", "b", "bb", "d", "dz", "e", "f", "g", "h", "i", "j", "k", "l", "lz", "m", "n", "o", "oz", "p", "q", "r", "s", "sz", "t", "z"} {
				for _, seq := range []base.SeqNum{base.MaxSeqNum, 7, 1} {
					target := base.MakeSearchKey(nil, []byte(ukey), seq)
					ge := sort.Search(n, func(i int) bool { return base.InternalCompare(fx.all[i].ikey(), target) >= 0 })
					// walk checks that the iterator sits at entry pos and then
					// after each move (n: Next, p: Prev), until the level is
					// exhausted.
					walk := func(seek string, pos int, moves string) {
						for i := 0; ; i++ {
							want := pos
							if pos < 0 || pos >= n {
								want = -1
							}
							if got := fx.at(t, it); got != want {
								t.Fatalf("%s(%s@%d) then %q: at entry %d, want %d", seek, ukey, seq, moves[:i], got, want)
							}
							if want < 0 || i == len(moves) {
								return
							}
							if moves[i] == 'n' {
								it.Next()
								pos++
							} else {
								it.Prev()
								pos--
							}
						}
					}
					// Most walks cross a group edge and turn around beyond it.
					it.SeekGE(target)
					walk("SeekGE", ge, "nnpp")
					it.SeekLT(target)
					walk("SeekLT", ge-1, "ppnn")
				}
			}
		})
	}
}

// TestFanOutOnlyWhereReadsWait pins the §4.2 trade as the iterator makes
// it: with parallel seeks enabled a seek into a three-table group on an
// in-memory filesystem spawns nothing, and once reads take tens of
// milliseconds the same seek costs one read's wait instead of three. The
// block cache holds nothing, so every seek reads a block per table; the
// tables' metadata is resident after the first.
func TestFanOutOnlyWhereReadsWait(t *testing.T) {
	const delay = 40 * time.Millisecond
	slow := vfs.NewSlow(vfs.NewMem(), vfs.OpRead)
	fx := newLevelIterFixtureOn(t, slow, 1)
	seekCost := func(parallel bool) (time.Duration, int64) {
		t.Helper()
		var stats IterStats
		it := fx.iter(IterRequest{Stats: &stats}, parallel)
		defer it.Close()
		// The first seek opens the group and, where reads have turned
		// slow since the last one, shows the table cache what they cost.
		it.SeekGE(base.MakeSearchKey(nil, []byte("r"), base.MaxSeqNum))
		start := time.Now()
		it.SeekGE(base.MakeSearchKey(nil, []byte("q"), base.MaxSeqNum))
		took := time.Since(start)
		if p := fx.at(t, it); fx.all[p] != (testEntry{"q", 16}) {
			t.Fatalf("seek landed on %v, want q@16", fx.all[p])
		}
		return took, stats.SeekFanOuts
	}

	if _, fanOuts := seekCost(true); fanOuts != 0 {
		t.Fatalf("%d seeks fanned out on an in-memory filesystem", fanOuts)
	}
	slow.SetDelay(delay)
	if took, fanOuts := seekCost(false); took < 3*delay || fanOuts != 0 {
		t.Fatalf("without parallel seeks a three-table seek took %v (%d fan-outs), want at least three reads of %v", took, fanOuts, delay)
	}
	if took, fanOuts := seekCost(true); took >= 2*delay || fanOuts == 0 {
		t.Fatalf("with parallel seeks a three-table seek took %v (%d fan-outs), want under two reads of %v", took, fanOuts, delay)
	}
}

// TestLevelIterOpensAndCharges pins what a seek costs: a re-seek into the
// open group opens no table, a seek into a group of one table is its table
// iterator (no merge) and charges nothing, and every seek that lands on the
// two-table group reports that group's guard to the layout's seek hook.
func TestLevelIterOpensAndCharges(t *testing.T) {
	fx := newLevelIterFixture(t)
	var stats IterStats
	it := fx.iter(IterRequest{Stats: &stats}, false)
	defer it.Close()
	seek := func(ukey string) { it.SeekGE(base.MakeSearchKey(nil, []byte(ukey), base.MaxSeqNum)) }

	seek("c")
	if stats.TablesOpened != 1 || it.cur != it.kids[0] {
		t.Fatalf("a seek into a one-table group opened %d tables (merging=%v), want its table iterator alone", stats.TablesOpened, it.cur == &it.m)
	}
	seek("b")
	seek("d")
	if stats.TablesOpened != 1 {
		t.Fatalf("re-seeks into the open group opened tables: %d opened in all", stats.TablesOpened)
	}
	if len(fx.layout.charged) != 0 {
		t.Fatalf("seeks into a one-table group were charged: %v", fx.layout.charged)
	}

	seek("h")
	seek("k")
	it.SeekLT(base.MakeSearchKey(nil, []byte("i"), base.MaxSeqNum))
	if stats.TablesOpened != 3 || it.cur != &it.m {
		t.Fatalf("seeks into the two-table group opened %d tables in all (merging=%v), want 3 and a merging iterator", stats.TablesOpened, it.cur == &it.m)
	}
	if got, want := fmt.Sprint(fx.layout.charged), "[1/g 1/g 1/g]"; got != want {
		t.Fatalf("seek hook saw %s, want %s", got, want)
	}

	// A seek into an empty group lands on the next group's first entry and
	// is not charged to either.
	seek("f")
	if got := fx.at(t, it); fx.all[got].ukey != "g" {
		t.Fatalf("a seek into the empty group landed on %q, want g", fx.all[got].ukey)
	}
	if len(fx.layout.charged) != 3 {
		t.Fatalf("a seek into an empty group was charged: %v", fx.layout.charged)
	}
}

// TestLevelIterBounds: groups outside [lo, hi) are never opened, and inside
// a group neither are the tables outside the request's bounds — which also
// decides whether a seek is charged.
func TestLevelIterBounds(t *testing.T) {
	fx := newLevelIterFixture(t)
	var stats IterStats
	// [g, gz): the second table of the two-table group starts at h.
	req := IterRequest{Bounds: base.Bounds{Lower: []byte("g"), Upper: []byte("gz")}, Stats: &stats}
	it := fx.iter(req, false)
	it.lo, it.hi, it.idx = 3, 4, 2
	defer it.Close()

	var got []string
	for it.First(); it.Valid(); it.Next() {
		got = append(got, string(base.UserKey(it.Key())))
	}
	// The tables are pruned, not the keys: clamping to the bounds is the
	// engine iterator's job.
	if want := "[g i k]"; fmt.Sprint(got) != want {
		t.Fatalf("bounded scan saw %v, want %s (the first table of group 3 alone)", got, want)
	}
	it.SeekGE(base.MakeSearchKey(nil, []byte("a"), base.MaxSeqNum))
	if p := fx.at(t, it); fx.all[p].ukey != "g" {
		t.Fatalf("a seek below the first in-bounds group landed on %q, want g", fx.all[p].ukey)
	}
	it.SeekLT(base.MakeSearchKey(nil, []byte("z"), base.MaxSeqNum))
	if p := fx.at(t, it); fx.all[p].ukey != "k" {
		t.Fatalf("a backward seek past the last in-bounds group landed on %q, want k", fx.all[p].ukey)
	}
	it.Prev()
	it.Prev()
	it.Prev()
	if it.Valid() {
		t.Fatalf("stepped below the first in-bounds group to %x", it.Key())
	}
	if stats.TablesOpened != 2 {
		t.Fatalf("%d tables opened, want 2: one table of group 3, opened again after the scan ran off its end", stats.TablesOpened)
	}
	if len(fx.layout.charged) != 0 {
		t.Fatalf("seeks that positioned one table were charged: %v", fx.layout.charged)
	}
}

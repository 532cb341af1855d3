package treebase

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/vfs"
)

// entriesIter yields pre-sorted internal keys for compaction-iter tests.
type entriesIter struct {
	keys [][]byte
	vals [][]byte
	idx  int
}

func (e *entriesIter) SeekGE(target []byte) {
	e.idx = sort.Search(len(e.keys), func(i int) bool {
		return base.InternalCompare(e.keys[i], target) >= 0
	})
}
func (e *entriesIter) SeekLT(target []byte) {
	e.SeekGE(target)
	e.idx--
}
func (e *entriesIter) First()        { e.idx = 0 }
func (e *entriesIter) Last()         { e.idx = len(e.keys) - 1 }
func (e *entriesIter) Next()         { e.idx++ }
func (e *entriesIter) Prev()         { e.idx-- }
func (e *entriesIter) Valid() bool   { return e.idx >= 0 && e.idx < len(e.keys) }
func (e *entriesIter) Key() []byte   { return e.keys[e.idx] }
func (e *entriesIter) Value() []byte { return e.vals[e.idx] }
func (e *entriesIter) Error() error  { return nil }
func (e *entriesIter) Close() error  { return nil }

func makeInput(specs []string) *entriesIter {
	// spec format: "ukey/seq/kind" with kind s or d, pre-sorted by caller
	// logic below.
	e := &entriesIter{}
	for _, s := range specs {
		var ukey string
		var seq int
		var kind string
		fmt.Sscanf(s, "%1s/%d/%1s", &ukey, &seq, &kind)
		k := base.KindSet
		if kind == "d" {
			k = base.KindDelete
		}
		e.keys = append(e.keys, base.MakeInternalKey(nil, []byte(ukey), base.SeqNum(seq), k))
		e.vals = append(e.vals, []byte(fmt.Sprintf("%s@%d", ukey, seq)))
	}
	// Sort keys and values together.
	type pair struct{ k, v []byte }
	var ps []pair
	for i := range e.keys {
		ps = append(ps, pair{e.keys[i], e.vals[i]})
	}
	sort.Slice(ps, func(i, j int) bool { return base.InternalCompare(ps[i].k, ps[j].k) < 0 })
	for i := range ps {
		e.keys[i], e.vals[i] = ps[i].k, ps[i].v
	}
	return e
}

func collect(t *testing.T, ci *CompactionIter) []string {
	t.Helper()
	var out []string
	for ci.First(); ci.Valid(); ci.Next() {
		ukey, seq, kind, _ := base.DecodeInternalKey(ci.Key())
		out = append(out, fmt.Sprintf("%s/%d/%v", ukey, seq, kind))
	}
	return out
}

func TestCompactionIterDropsShadowedVersions(t *testing.T) {
	in := makeInput([]string{"a/5/s", "a/3/s", "a/1/s", "b/2/s"})
	ci := NewCompactionIter(in, base.MaxSeqNum, false, nil)
	got := collect(t, ci)
	// Newest of 'a' survives, older shadowed versions die.
	want := []string{"a/5/SET", "b/2/SET"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestCompactionIterRespectsSnapshots(t *testing.T) {
	in := makeInput([]string{"a/9/s", "a/5/s", "a/2/s"})
	// A snapshot at 5 requires keeping a@9 (latest) and a@5 (newest <= 5);
	// a@2 is shadowed for every possible reader.
	ci := NewCompactionIter(in, 5, false, nil)
	got := collect(t, ci)
	want := []string{"a/9/SET", "a/5/SET"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestCompactionIterTombstoneElision(t *testing.T) {
	in := makeInput([]string{"a/5/d", "a/3/s", "b/2/s"})
	// Without elision the tombstone is kept (data below could exist).
	ci := NewCompactionIter(in, base.MaxSeqNum, false, nil)
	got := collect(t, ci)
	want := []string{"a/5/DEL", "b/2/SET"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("no-elide: got %v want %v", got, want)
	}

	// With elision (last level) the tombstone and everything under it die.
	in2 := makeInput([]string{"a/5/d", "a/3/s", "b/2/s"})
	ci2 := NewCompactionIter(in2, base.MaxSeqNum, true, nil)
	got2 := collect(t, ci2)
	want2 := []string{"b/2/SET"}
	if fmt.Sprint(got2) != fmt.Sprint(want2) {
		t.Fatalf("elide: got %v want %v", got2, want2)
	}
}

func TestCompactionIterTombstoneAboveSnapshotKept(t *testing.T) {
	// A tombstone newer than the smallest snapshot must survive even at
	// the last level: snapshot readers still need the value under it, and
	// non-snapshot readers need the tombstone.
	in := makeInput([]string{"a/9/d", "a/5/s"})
	ci := NewCompactionIter(in, 5, true, nil)
	got := collect(t, ci)
	want := []string{"a/9/DEL", "a/5/SET"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// outputCore opens an empty tree on fs whose output builders the tests
// drive.
func outputCore(t *testing.T, fs vfs.FS) *Core {
	cfg := &base.Config{NumLevels: 3}
	cfg.EnsureDefaults()
	c, err := Open(Kind{Name: "test"}, cfg, fs, "db", testHost{}, &testLayout{}, &stackView{levels: make([][]*base.FileMetadata, 3)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestOutputBuilderCutsAndFinishes(t *testing.T) {
	fs := vfs.NewMem()
	ob := outputCore(t, fs).newOutputBuilder()

	add := func(k string, seq int) {
		ik := base.MakeInternalKey(nil, []byte(k), base.SeqNum(seq), base.KindSet)
		if err := ob.Add(ik, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	add("a", 1)
	add("b", 2)
	if err := ob.Cut(); err != nil {
		t.Fatal(err)
	}
	add("c", 3)
	metas, err := ob.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("expected 2 tables, got %d", len(metas))
	}
	if string(metas[0].SmallestUserKey()) != "a" || string(metas[0].LargestUserKey()) != "b" {
		t.Fatalf("table 0 bounds: %v", metas[0])
	}
	if string(metas[1].SmallestUserKey()) != "c" {
		t.Fatalf("table 1 bounds: %v", metas[1])
	}
	for _, m := range metas {
		if _, err := fs.Stat("db/" + base.MakeFilename(base.FileTypeTable, m.FileNum)); err != nil {
			t.Fatalf("output file missing: %v", err)
		}
	}
}

func TestOutputBuilderAbandonRemovesFiles(t *testing.T) {
	fs := vfs.NewMem()
	c := outputCore(t, fs)
	ob := c.newOutputBuilder()
	ik := base.MakeInternalKey(nil, []byte("a"), 1, base.KindSet)
	ob.Add(ik, []byte("v"))
	ob.Cut()
	ob.Add(base.MakeInternalKey(nil, []byte("b"), 2, base.KindSet), []byte("v"))
	ob.Abandon()
	names, _ := fs.List("db")
	for _, name := range names {
		if ft, _, _ := base.ParseFilename(name); ft == base.FileTypeTable {
			t.Fatalf("abandon left files: %v", names)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOutputBuilderEmptyFinish(t *testing.T) {
	ob := outputCore(t, vfs.NewMem()).newOutputBuilder()
	metas, err := ob.Finish()
	if err != nil || len(metas) != 0 {
		t.Fatalf("empty finish: %v %v", metas, err)
	}
}

var _ iterator.Iterator = (*entriesIter)(nil)
var _ = bytes.Compare

package sstable

import (
	"bytes"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/vfs"
)

// buildRangeDelTable writes points plus tombstones and reopens the table.
func buildRangeDelTable(t *testing.T, points []kv, dels [][3]interface{}) (*Reader, TableInfo) {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, WriterOptions{BloomBitsPerKey: 10})
	for _, e := range points {
		if err := w.Add(e.ikey, e.value); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range dels {
		w.AddRangeDel([]byte(d[0].(string)), []byte(d[1].(string)), base.SeqNum(d[2].(int)))
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTable(t, fs, "t.sst", nil)
	return r, info
}

// TestRangeDelRoundTrip: tombstones written to the range-del block come
// back fragmented, bounds include the tombstone span, and tables without
// tombstones have no range-del block.
func TestRangeDelRoundTrip(t *testing.T) {
	points := []kv{
		{ikey: base.MakeInternalKey(nil, []byte("d"), 5, base.KindSet), value: []byte("v1")},
		{ikey: base.MakeInternalKey(nil, []byte("m"), 6, base.KindSet), value: []byte("v2")},
	}
	r, info := buildRangeDelTable(t, points, [][3]interface{}{
		{"b", "k", 9},
		{"e", "q", 12}, // overlaps the first: fragmented on flush
	})
	defer r.Close()

	if info.NumRangeDels == 0 {
		t.Fatal("no fragments recorded")
	}
	if string(info.RangeDelStart) != "b" || string(info.RangeDelEnd) != "q" {
		t.Fatalf("span [%s,%s), want [b,q)", info.RangeDelStart, info.RangeDelEnd)
	}
	// Smallest extends to the tombstone start; largest is the exclusive
	// sentinel at the tombstone end (beyond the largest point "m").
	if u := base.UserKey(info.Smallest); string(u) != "b" {
		t.Fatalf("smallest %q, want b", u)
	}
	if !base.IsRangeDelSentinel(info.Largest) || string(base.UserKey(info.Largest)) != "q" {
		t.Fatalf("largest %s, want sentinel at q", base.InternalKeyString(info.Largest))
	}

	rd := r.RangeDels()
	if rd == nil {
		t.Fatal("reader lost the tombstones")
	}
	cases := []struct {
		key  string
		at   base.SeqNum
		want base.SeqNum
	}{
		{"a", 100, 0}, {"b", 100, 9}, {"d", 100, 9}, {"e", 100, 12},
		{"j", 100, 12}, {"j", 10, 9}, {"k", 100, 12}, {"p", 100, 12},
		{"q", 100, 0}, {"d", 8, 0},
	}
	for _, c := range cases {
		if got := rd.CoverSeq([]byte(c.key), c.at); got != c.want {
			t.Errorf("CoverSeq(%q,%d) = %d, want %d", c.key, c.at, got, c.want)
		}
	}

	// Point entries are unaffected by the tombstone block.
	it := r.NewIter()
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), points[n].ikey) {
			t.Fatalf("point %d mismatch", n)
		}
		n++
	}
	if n != len(points) {
		t.Fatalf("read %d points, want %d", n, len(points))
	}

	// A clean table has no range-del block.
	clean, cleanInfo := buildRangeDelTable(t, points, nil)
	defer clean.Close()
	if clean.RangeDels() != nil || cleanInfo.NumRangeDels != 0 {
		t.Fatal("clean table reports tombstones")
	}
}

// TestRangeDelSpanDoesNotAliasInputs pins a metadata-corruption
// regression: the spans Finish returns must be copies, because compaction
// passes clip bounds that alias the merge iterator's reused key buffer,
// which is rewritten right after the table is cut — while RangeDelStart/
// RangeDelEnd live on in FileMetadata and the manifest.
func TestRangeDelSpanDoesNotAliasInputs(t *testing.T) {
	fs := vfs.NewMem()
	f, err := fs.Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, WriterOptions{})
	start := []byte("b")
	end := []byte("k")
	w.AddRangeDel(start, end, 7)
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	start[0], end[0] = 'z', 'z' // the caller reuses its buffers
	if string(info.RangeDelStart) != "b" || string(info.RangeDelEnd) != "k" {
		t.Fatalf("span [%s,%s) aliases caller buffers, want [b,k)", info.RangeDelStart, info.RangeDelEnd)
	}
}

// TestRangeDelOnlyTable: a table holding only tombstones is legal — empty
// index, no filter, bounds from the tombstone span — and point probes and
// scans find nothing.
func TestRangeDelOnlyTable(t *testing.T) {
	r, info := buildRangeDelTable(t, nil, [][3]interface{}{{"c", "h", 7}})
	defer r.Close()
	if info.Count != 0 || info.NumRangeDels != 1 {
		t.Fatalf("info %+v", info)
	}
	if u := base.UserKey(info.Smallest); string(u) != "c" {
		t.Fatalf("smallest %q", u)
	}
	if !base.IsRangeDelSentinel(info.Largest) {
		t.Fatal("largest not a sentinel")
	}
	search := base.MakeSearchKey(nil, []byte("e"), base.MaxSeqNum)
	if _, _, ok, err := r.Get(search); err != nil || ok {
		t.Fatalf("point probe on tombstone-only table: ok=%v err=%v", ok, err)
	}
	it := r.NewIter()
	defer it.Close()
	for it.First(); it.Valid(); it.Next() {
		t.Fatal("tombstone-only table yielded a point entry")
	}
	if got := r.RangeDels().CoverSeq([]byte("e"), 100); got != 7 {
		t.Fatalf("CoverSeq = %d, want 7", got)
	}
}

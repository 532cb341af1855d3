package memtable

import (
	"encoding/binary"
	"fmt"
	"testing"

	"pebblesdb/internal/base"
)

func TestSetGetLatestWins(t *testing.T) {
	m := New()
	m.Set([]byte("k"), 1, base.KindSet, []byte("v1"))
	m.Set([]byte("k"), 2, base.KindSet, []byte("v2"))

	v, kind, ok := m.Get([]byte("k"), base.MaxSeqNum)
	if !ok || kind != base.KindSet || string(v) != "v2" {
		t.Fatalf("latest read: %q %v %v", v, kind, ok)
	}
}

func TestSnapshotReads(t *testing.T) {
	m := New()
	m.Set([]byte("k"), 5, base.KindSet, []byte("old"))
	m.Set([]byte("k"), 10, base.KindSet, []byte("new"))

	if v, _, ok := m.Get([]byte("k"), 7); !ok || string(v) != "old" {
		t.Fatalf("read at seq 7: %q ok=%v", v, ok)
	}
	if v, _, ok := m.Get([]byte("k"), 10); !ok || string(v) != "new" {
		t.Fatalf("read at seq 10: %q ok=%v", v, ok)
	}
	if _, _, ok := m.Get([]byte("k"), 4); ok {
		t.Fatal("read below first version should miss")
	}
}

func TestTombstoneVisible(t *testing.T) {
	m := New()
	m.Set([]byte("k"), 1, base.KindSet, []byte("v"))
	m.Set([]byte("k"), 2, base.KindDelete, nil)

	_, kind, ok := m.Get([]byte("k"), base.MaxSeqNum)
	if !ok || kind != base.KindDelete {
		t.Fatalf("tombstone read: kind=%v ok=%v", kind, ok)
	}
	// Below the tombstone the old value is visible.
	v, kind, ok := m.Get([]byte("k"), 1)
	if !ok || kind != base.KindSet || string(v) != "v" {
		t.Fatal("pre-tombstone read failed")
	}
}

func TestGetMissesSimilarKeys(t *testing.T) {
	m := New()
	m.Set([]byte("abc"), 1, base.KindSet, []byte("v"))
	if _, _, ok := m.Get([]byte("ab"), base.MaxSeqNum); ok {
		t.Fatal("prefix key should miss")
	}
	if _, _, ok := m.Get([]byte("abcd"), base.MaxSeqNum); ok {
		t.Fatal("extension key should miss")
	}
}

func TestIterYieldsInternalOrder(t *testing.T) {
	m := New()
	m.Set([]byte("a"), 1, base.KindSet, []byte("v1"))
	m.Set([]byte("a"), 3, base.KindSet, []byte("v3"))
	m.Set([]byte("b"), 2, base.KindSet, []byte("v2"))

	it := m.NewIter()
	var got []string
	for it.First(); it.Valid(); it.Next() {
		ukey, seq, _, _ := base.DecodeInternalKey(it.Key())
		got = append(got, fmt.Sprintf("%s@%d", ukey, seq))
	}
	want := []string{"a@3", "a@1", "b@2"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %v want %v", i, got, want)
		}
	}
}

func TestLenAndSize(t *testing.T) {
	m := New()
	if m.Len() != 0 {
		t.Fatal("fresh memtable should be empty")
	}
	for i := 0; i < 100; i++ {
		m.Set([]byte(fmt.Sprintf("k%03d", i)), base.SeqNum(i+1), base.KindSet, []byte("v"))
	}
	if m.Len() != 100 {
		t.Fatalf("Len=%d", m.Len())
	}
	if m.ApproxSize() <= 0 {
		t.Fatal("size should be positive")
	}
}

// TestSetConcurrent sanity-checks the concurrent-writer contract at the
// memtable layer: distinct (key, seq) entries inserted from multiple
// goroutines must all be retrievable.
func TestSetConcurrent(t *testing.T) {
	m := New()
	done := make(chan struct{})
	const writers, per = 4, 500
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("w%d-%04d", w, i))
				m.Set(k, base.SeqNum(w*per+i+1), base.KindSet, []byte("v"))
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	if m.Len() != writers*per {
		t.Fatalf("Len = %d, want %d", m.Len(), writers*per)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			k := []byte(fmt.Sprintf("w%d-%04d", w, i))
			if _, _, found := m.Get(k, base.SeqNum(writers*per+1)); !found {
				t.Fatalf("key %q lost", k)
			}
		}
	}
}

// BenchmarkMemtableSet tracks the per-entry insert cost and allocation
// count (run with -benchmem; the alloc budget is asserted by
// TestSetAllocs).
func BenchmarkMemtableSet(b *testing.B) {
	m := New()
	key := make([]byte, 16)
	val := make([]byte, 128)
	b.ReportAllocs()
	b.SetBytes(int64(len(key) + len(val)))
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key, uint64(i))
		m.Set(key, base.SeqNum(i+1), base.KindSet, val)
	}
}

func TestDeleteRangeStore(t *testing.T) {
	m := New()
	m.Set([]byte("b"), 1, base.KindSet, []byte("v1"))
	m.Set([]byte("d"), 2, base.KindSet, []byte("v2"))
	m.DeleteRange([]byte("a"), []byte("c"), 3)
	m.Set([]byte("b"), 4, base.KindSet, []byte("v3"))

	// CoverSeq honors snapshot visibility.
	if got := m.CoverSeq([]byte("b"), base.MaxSeqNum); got != 3 {
		t.Fatalf("CoverSeq(b) = %d, want 3", got)
	}
	if got := m.CoverSeq([]byte("b"), 2); got != 0 {
		t.Fatalf("CoverSeq(b, snap 2) = %d, want 0", got)
	}
	if got := m.CoverSeq([]byte("d"), base.MaxSeqNum); got != 0 {
		t.Fatalf("CoverSeq(d) = %d, want 0 (outside range)", got)
	}

	// Entry-vs-tombstone decisions are the caller's: GetSearch reports the
	// entry seq so the engine can compare against CoverSeq.
	search := base.MakeSearchKey(nil, []byte("b"), base.MaxSeqNum)
	v, seq, kind, ok := m.GetSearch(search)
	if !ok || kind != base.KindSet || seq != 4 || string(v) != "v3" {
		t.Fatalf("GetSearch(b) = %q seq=%d kind=%v ok=%v", v, seq, kind, ok)
	}
	search = base.MakeSearchKey(nil, []byte("b"), 3)
	if _, seq, _, ok := m.GetSearch(search); !ok || seq != 1 {
		t.Fatalf("GetSearch(b@3) seq=%d ok=%v, want the old version", seq, ok)
	}

	// The tombstones flush separately from the point stream.
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3 points", m.Len())
	}
	rds := m.RangeDels()
	if len(rds) != 1 || string(rds[0].Start) != "a" || string(rds[0].End) != "c" || rds[0].Seq != 3 {
		t.Fatalf("RangeDels = %v", rds)
	}
	if m.Empty() {
		t.Fatal("memtable with data reported empty")
	}
	if !New().Empty() {
		t.Fatal("fresh memtable not empty")
	}
	rdOnly := New()
	rdOnly.DeleteRange([]byte("a"), []byte("b"), 1)
	if rdOnly.Empty() {
		t.Fatal("tombstone-only memtable must flush (not Empty)")
	}
	if rdOnly.ApproxSize() == 0 {
		t.Fatal("tombstones must count toward ApproxSize")
	}
}

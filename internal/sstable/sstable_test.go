package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/vfs"
)

type kv struct {
	ikey  []byte
	value []byte
}

func buildTable(t *testing.T, fs vfs.FS, name string, entries []kv, opts WriterOptions) TableInfo {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, opts)
	for _, e := range entries {
		if err := w.Add(e.ikey, e.value); err != nil {
			t.Fatal(err)
		}
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return info
}

func sortedEntries(n int, seed int64) []kv {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var keys []string
	for len(seen) < n {
		k := fmt.Sprintf("key%08d", rng.Intn(1<<28))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	entries := make([]kv, n)
	for i, k := range keys {
		entries[i] = kv{
			ikey:  base.MakeInternalKey(nil, []byte(k), base.SeqNum(i+1), base.KindSet),
			value: []byte("value:" + k),
		}
	}
	return entries
}

func openTable(t *testing.T, fs vfs.FS, name string, c *cache.Cache) *Reader {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := fs.Stat(name)
	r, err := Open(f, size, 1, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriteReadRoundtrip(t *testing.T) {
	fs := vfs.NewMem()
	entries := sortedEntries(2000, 1)
	info := buildTable(t, fs, "t.sst", entries, WriterOptions{BloomBitsPerKey: 10})

	if info.Count != len(entries) {
		t.Fatalf("count %d", info.Count)
	}
	if !bytes.Equal(info.Smallest, entries[0].ikey) || !bytes.Equal(info.Largest, entries[len(entries)-1].ikey) {
		t.Fatal("bounds mismatch")
	}

	r := openTable(t, fs, "t.sst", nil)
	defer r.Close()
	it := r.NewIter()
	defer it.Close()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), entries[i].ikey) {
			t.Fatalf("pos %d key mismatch", i)
		}
		if !bytes.Equal(it.Value(), entries[i].value) {
			t.Fatalf("pos %d value mismatch", i)
		}
		i++
	}
	if it.Error() != nil {
		t.Fatal(it.Error())
	}
	if i != len(entries) {
		t.Fatalf("iterated %d of %d", i, len(entries))
	}
}

func TestGetFindsNewestVisible(t *testing.T) {
	fs := vfs.NewMem()
	// Two versions of the same key plus a tombstone of another.
	entries := []kv{
		{base.MakeInternalKey(nil, []byte("a"), 9, base.KindSet), []byte("a9")},
		{base.MakeInternalKey(nil, []byte("a"), 5, base.KindSet), []byte("a5")},
		{base.MakeInternalKey(nil, []byte("b"), 7, base.KindDelete), nil},
		{base.MakeInternalKey(nil, []byte("c"), 3, base.KindSet), []byte("c3")},
	}
	buildTable(t, fs, "t.sst", entries, WriterOptions{BloomBitsPerKey: 10})
	r := openTable(t, fs, "t.sst", nil)
	defer r.Close()

	get := func(k string, seq base.SeqNum) (string, base.Kind, bool) {
		search := base.MakeSearchKey(nil, []byte(k), seq)
		ik, v, ok, err := r.Get(search)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return "", 0, false
		}
		_, _, kind, _ := base.DecodeInternalKey(ik)
		return string(v), kind, true
	}

	if v, _, ok := get("a", base.MaxSeqNum); !ok || v != "a9" {
		t.Fatalf("a latest: %q %v", v, ok)
	}
	if v, _, ok := get("a", 6); !ok || v != "a5" {
		t.Fatalf("a@6: %q %v", v, ok)
	}
	if _, _, ok := get("a", 4); ok {
		t.Fatal("a@4 should miss")
	}
	if _, kind, ok := get("b", base.MaxSeqNum); !ok || kind != base.KindDelete {
		t.Fatal("b should be a visible tombstone")
	}
	if _, _, ok := get("zzz", base.MaxSeqNum); ok {
		t.Fatal("absent key should miss")
	}
}

func TestBloomFilterUsed(t *testing.T) {
	fs := vfs.NewMem()
	entries := sortedEntries(1000, 2)
	buildTable(t, fs, "t.sst", entries, WriterOptions{BloomBitsPerKey: 10})
	r := openTable(t, fs, "t.sst", nil)
	defer r.Close()

	for _, e := range entries {
		if !r.MayContain(base.UserKey(e.ikey)) {
			t.Fatal("bloom false negative")
		}
	}
	misses := 0
	for i := 0; i < 1000; i++ {
		if !r.MayContain([]byte(fmt.Sprintf("absent%06d", i))) {
			misses++
		}
	}
	if misses < 900 {
		t.Fatalf("bloom rejected only %d/1000 absent keys", misses)
	}
	if r.FilterMemory() == 0 {
		t.Fatal("filter should be resident")
	}
}

func TestNoBloomFilter(t *testing.T) {
	fs := vfs.NewMem()
	entries := sortedEntries(100, 3)
	buildTable(t, fs, "t.sst", entries, WriterOptions{BloomBitsPerKey: 0})
	r := openTable(t, fs, "t.sst", nil)
	defer r.Close()
	if !r.MayContain([]byte("anything")) {
		t.Fatal("without a filter MayContain must be permissive")
	}
	if r.FilterMemory() != 0 {
		t.Fatal("no filter should be resident")
	}
}

func TestSeekGEAcrossBlocks(t *testing.T) {
	fs := vfs.NewMem()
	entries := sortedEntries(5000, 4)
	buildTable(t, fs, "t.sst", entries, WriterOptions{BlockSize: 256, BloomBitsPerKey: 10})
	r := openTable(t, fs, "t.sst", nil)
	defer r.Close()
	it := r.NewIter()
	defer it.Close()

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		idx := rng.Intn(len(entries))
		it.SeekGE(entries[idx].ikey)
		if !it.Valid() || !bytes.Equal(it.Key(), entries[idx].ikey) {
			t.Fatalf("seek to entry %d failed", idx)
		}
	}
	// Seek past the end.
	it.SeekGE(base.MakeInternalKey(nil, []byte("zzzzzz"), 1, base.KindSet))
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
}

func TestBlockCacheUsed(t *testing.T) {
	fs := vfs.NewMem()
	entries := sortedEntries(3000, 6)
	buildTable(t, fs, "t.sst", entries, WriterOptions{BlockSize: 512, BloomBitsPerKey: 10})
	c := cache.New(1 << 20)
	r := openTable(t, fs, "t.sst", c)
	defer r.Close()

	// Two full scans: the second should hit the cache.
	for pass := 0; pass < 2; pass++ {
		it := r.NewIter()
		for it.First(); it.Valid(); it.Next() {
		}
		it.Close()
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatalf("expected cache hits, got stats %+v", st)
	}
}

func TestCorruptionDetected(t *testing.T) {
	fs := vfs.NewMem()
	entries := sortedEntries(200, 7)
	buildTable(t, fs, "t.sst", entries, WriterOptions{BloomBitsPerKey: 10})

	size, _ := fs.Stat("t.sst")
	f, _ := fs.Open("t.sst")
	data := make([]byte, size)
	f.ReadAt(data, 0)
	f.Close()

	// Flip a byte in the first data block.
	data[10] ^= 0xff
	fw, _ := fs.Create("bad.sst")
	fw.Write(data)
	fw.Close()

	bf, _ := fs.Open("bad.sst")
	r, err := Open(bf, size, 2, nil, nil)
	if err != nil {
		return // index/footer corruption detected at open: fine
	}
	it := r.NewIter()
	for it.First(); it.Valid(); it.Next() {
	}
	if it.Error() == nil {
		t.Fatal("corrupted block should surface an error")
	}
	it.Close()
	r.Close()
}

func TestTruncatedFileRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	f.Write([]byte("not a table"))
	f.Close()
	rf, _ := fs.Open("t.sst")
	if _, err := Open(rf, 11, 1, nil, nil); err == nil {
		t.Fatal("tiny file should be rejected")
	}
}

func TestEmptyTableRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	if _, err := w.Finish(); err == nil {
		t.Fatal("finishing an empty table should fail")
	}
	f.Close()
}

func TestRefcounting(t *testing.T) {
	fs := vfs.NewMem()
	entries := sortedEntries(10, 8)
	buildTable(t, fs, "t.sst", entries, WriterOptions{})
	r := openTable(t, fs, "t.sst", nil)

	r.Ref() // simulate a second user
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Still readable through the remaining reference.
	it := r.NewIter()
	it.First()
	if !it.Valid() {
		t.Fatal("reader closed while referenced")
	}
	it.Close()
	r.Unref()
}

func BenchmarkTableGet(b *testing.B) {
	fs := vfs.NewMem()
	entries := sortedEntries(50000, 42)
	bf, _ := fs.Create("bench.sst")
	bw := NewWriter(bf, WriterOptions{BloomBitsPerKey: 10})
	for _, e := range entries {
		bw.Add(e.ikey, e.value)
	}
	if _, err := bw.Finish(); err != nil {
		b.Fatal(err)
	}
	bf.Close()
	f, _ := fs.Open("bench.sst")
	size, _ := fs.Stat("bench.sst")
	r, err := Open(f, size, 1, cache.New(64<<20), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%len(entries)]
		search := base.MakeSearchKey(nil, base.UserKey(e.ikey), base.MaxSeqNum)
		if _, _, ok, err := r.Get(search); err != nil || !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTableWrite(b *testing.B) {
	entries := sortedEntries(10000, 43)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := vfs.NewMem()
		f, _ := fs.Create("w.sst")
		w := NewWriter(f, WriterOptions{BloomBitsPerKey: 10})
		for _, e := range entries {
			w.Add(e.ikey, e.value)
		}
		if _, err := w.Finish(); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

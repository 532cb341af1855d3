package sstable

import (
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/vfs"
)

// tableImage builds a table on a scratch MemFS and returns its bytes.
func tableImage(t testing.TB, entries []kv, dels [][2]string, opts WriterOptions) []byte {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, opts)
	for _, e := range entries {
		if err := w.Add(e.ikey, e.value); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range dels {
		w.AddRangeDel([]byte(d[0]), []byte(d[1]), base.SeqNum(1000+i))
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, info.Size)
	if err := fullReadAt(f, img, 0); err != nil {
		t.Fatal(err)
	}
	return img
}

// FuzzTableOpen feeds arbitrary bytes to Open and, when it accepts them,
// walks the table both ways with both iterators and probes it. Nothing may
// panic and every failure must wrap ErrCorrupt: a table file is disk bytes,
// and its footer and handles sit outside every checksum.
func FuzzTableOpen(f *testing.F) {
	// Small tables: the fuzzer minimizes every input it keeps, byte by byte.
	f.Add(tableImage(f, compressibleEntries(8), nil,
		WriterOptions{BlockSize: 256, BloomBitsPerKey: 10, Compression: compress.Snappy}))
	f.Add(tableImage(f, sortedEntries(12, 3), [][2]string{{"key1", "key3"}, {"key2", "key5"}},
		WriterOptions{BlockSize: 128, BloomBitsPerKey: 10, PrefixBloomLength: 6}))
	f.Add(tableImage(f, nil, [][2]string{{"a", "m"}}, WriterOptions{}))
	// Checksums intact, keys too short to be internal keys.
	f.Add(tableImage(f, []kv{{[]byte("a"), []byte("1")}, {[]byte("b"), []byte("2")}}, nil, WriterOptions{}))
	// The retired formats: Open must refuse them, never misparse them.
	for _, name := range []string{"testdata/v1-format.sst", "testdata/v2-format.sst", "testdata/v3-format.sst"} {
		img, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		mustBeCorrupt := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: error does not wrap ErrCorrupt: %v", what, err)
			}
		}
		fs := vfs.NewMem()
		wf, _ := fs.Create("f.sst")
		wf.Write(img)
		rf, _ := fs.Open("f.sst")
		r, err := Open(rf, int64(len(img)), 1, nil, nil)
		if err != nil {
			mustBeCorrupt("open", err)
			return
		}
		defer r.Close()
		if len(img) >= 8 {
			if _, retired := retiredMagics[binary.LittleEndian.Uint64(img[len(img)-8:])]; retired {
				t.Fatal("opened a table of a retired format")
			}
		}
		search := base.MakeSearchKey(nil, []byte("key000020"), base.MaxSeqNum)
		for _, it := range []iterator.Iterator{r.NewIter(), r.NewSequentialIter()} {
			for it.First(); it.Valid(); it.Next() {
				_, _ = it.Key(), it.Value()
			}
			for it.Last(); it.Valid(); it.Prev() {
				_, _ = it.Key(), it.Value()
			}
			it.SeekGE(search)
			it.SeekLT(search)
			mustBeCorrupt("iterate", it.Close())
		}
		_, _, _, err = r.Get(search)
		mustBeCorrupt("get", err)
		r.MayContain([]byte("key000020"))
		r.MayContainPrefix([]byte("key000"))
		if rd := r.RangeDels(); rd != nil {
			rd.CoverSeq([]byte("key2"), base.MaxSeqNum)
		}
	})
}

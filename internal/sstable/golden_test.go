package sstable

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/vfs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/v4-golden.sst from this build's writer")

const goldenPath = "testdata/v4-golden.sst"

// goldenTable writes one small table that has every block a v4 table can
// have — several data blocks, some stored compressed and some raw, the key
// filter, the prefix filter, a range-del block, the index — and returns the
// file's bytes. Its keys exercise what the filters' construction depends
// on: several versions of one user key (hashed once each for the key
// filter), runs of keys sharing a prefix, and keys shorter than the prefix
// length between the runs. With reused set the writer has built another
// table before and is Reset onto this one.
func goldenTable(t *testing.T, reused bool) []byte {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("golden.sst")
	if err != nil {
		t.Fatal(err)
	}
	opts := WriterOptions{
		BlockSize:         512,
		BloomBitsPerKey:   10,
		PrefixBloomLength: 4,
		Compression:       compress.Snappy,
	}
	w := NewWriter(f, opts)
	if reused {
		junk, err := fs.Create("junk.sst")
		if err != nil {
			t.Fatal(err)
		}
		w = NewWriter(junk, opts)
		for _, e := range compressibleEntries(300) {
			if err := w.Add(e.ikey, e.value); err != nil {
				t.Fatal(err)
			}
		}
		w.AddRangeDel([]byte("a"), []byte("z"), 7)
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		w.Reset(f)
	}
	seq := base.SeqNum(1000)
	add := func(ukey string, kind base.Kind, value string) {
		seq--
		if err := w.Add(base.MakeInternalKey(nil, []byte(ukey), seq, kind), []byte(value)); err != nil {
			t.Fatal(err)
		}
	}
	for _, prefix := range []string{"aaaa", "ab", "abcd", "abce", "b", "bbbbbbbb", "zz", "zzzz"} {
		if len(prefix) < 4 {
			add(prefix, base.KindSet, "short:"+prefix)
			continue
		}
		for i := 0; i < 12; i++ {
			ukey := fmt.Sprintf("%s-%03d", prefix, i)
			// Every third key has three versions, the middle one a tombstone.
			if i%3 == 0 {
				add(ukey, base.KindSet, strings.Repeat("new-"+ukey+"|", 6))
				add(ukey, base.KindDelete, "")
			}
			// Most runs hold values that repeat (compressed blocks), two
			// hold values that do not (blocks stored raw).
			v := strings.Repeat(ukey+"|", 8)
			if prefix == "abce" || prefix == "zzzz" {
				x := uint64(i+1) * 0x9e3779b97f4a7c15
				v = ""
				for len(v) < 64 {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					v += fmt.Sprintf("%016x", x)
				}
			}
			add(ukey, base.KindSet, v)
		}
	}
	w.AddRangeDel([]byte("abcd-004"), []byte("abce"), 1500)
	w.AddRangeDel([]byte("abcd-010"), []byte("b"), 1400)
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c := info.Compression
	if c.DataBlocks < 4 || c.CompressedBlocks == 0 || c.CompressedBlocks == c.DataBlocks || info.NumRangeDels == 0 {
		t.Fatalf("the golden table lost a shape it is meant to have: %+v, %d range-del entries", c, info.NumRangeDels)
	}
	g, err := fs.Open("golden.sst")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	data := make([]byte, info.Size)
	if err := fullReadAt(g, data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenV4Table pins the writer's output byte for byte against a table
// written by the build before the filters were built from hashes collected
// in Add instead of from copies of the keys (testdata/v4-golden.sst;
// regenerate with -update-golden only for a deliberate format change).
func TestGoldenV4Table(t *testing.T) {
	got := goldenTable(t, false)
	if !bytes.Equal(got, goldenTable(t, true)) {
		t.Fatal("a Reset writer builds a different table than a new one")
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("the writer's table (%d bytes) differs from %s (%d bytes) at offset %d", len(got), goldenPath, len(want), i)
	}
}

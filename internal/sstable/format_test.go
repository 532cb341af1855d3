package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/crc"
	"pebblesdb/internal/vfs"
)

// compressibleEntries returns sorted entries whose values are ~50%
// compressible (a random-ish half repeated), like the benchmark workloads.
func compressibleEntries(n int) []kv {
	entries := make([]kv, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		half := fmt.Sprintf("payload-%06d-%x-", i, i*2654435761)
		entries[i] = kv{
			ikey:  base.MakeInternalKey(nil, []byte(k), base.SeqNum(i+1), base.KindSet),
			value: []byte(strings.Repeat(half, 4)),
		}
	}
	return entries
}

// TestV1FixtureReadable opens a table written by the format-v1 code
// (testdata/v1-format.sst, generated before the v2 change landed) and
// verifies every entry plus point lookups: old stores stay readable after
// upgrading.
func TestV1FixtureReadable(t *testing.T) {
	const path = "testdata/v1-format.sst"
	size, err := vfs.Default.Stat(path)
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	f, err := vfs.Default.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(f, size, 1, cache.New(1<<20, nil), nil)
	if err != nil {
		t.Fatalf("open v1 fixture: %v", err)
	}
	defer r.Close()

	if r.FormatVersion() != formatV1 {
		t.Fatalf("fixture detected as format %d, want %d", r.FormatVersion(), formatV1)
	}

	// The generator wrote keyNNNNN -> value-NNNNN-MMMMM for N in [0,500).
	it := r.NewIter()
	defer it.Close()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		wantKey := fmt.Sprintf("key%05d", i)
		wantVal := fmt.Sprintf("value-%05d-%05d", i, i*7)
		if string(base.UserKey(it.Key())) != wantKey {
			t.Fatalf("entry %d: key %q, want %q", i, base.UserKey(it.Key()), wantKey)
		}
		if string(it.Value()) != wantVal {
			t.Fatalf("entry %d: value %q, want %q", i, it.Value(), wantVal)
		}
		i++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if i != 500 {
		t.Fatalf("iterated %d entries, want 500", i)
	}

	// Point lookups exercise the v1 block-read path through Get.
	for _, n := range []int{0, 123, 499} {
		search := base.MakeSearchKey(nil, []byte(fmt.Sprintf("key%05d", n)), base.MaxSeqNum)
		_, v, ok, err := r.Get(search)
		if err != nil || !ok {
			t.Fatalf("get key%05d: ok=%v err=%v", n, ok, err)
		}
		if want := fmt.Sprintf("value-%05d-%05d", n, n*7); string(v) != want {
			t.Fatalf("get key%05d: %q, want %q", n, v, want)
		}
	}

	if !r.MayContain([]byte("key00042")) {
		t.Fatal("v1 bloom filter lost a present key")
	}
}

// TestOldFormatFixturesReadable opens one table of each format the writer
// no longer emits (testdata/v2-format.sst and v3-format.sst, written by the
// last commit whose writer chose among three footers): 500 snappy-compressed
// entries each, the v3 table with two overlapping range tombstones. The
// reader paths for those footers have no other source of input now.
func TestOldFormatFixturesReadable(t *testing.T) {
	for _, version := range []int{formatV2, formatV3} {
		path := fmt.Sprintf("testdata/v%d-format.sst", version)
		size, err := vfs.Default.Stat(path)
		if err != nil {
			t.Fatalf("fixture missing: %v", err)
		}
		f, err := vfs.Default.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var codec CodecStats
		r, err := Open(f, size, 1, nil, &codec)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		if r.FormatVersion() != version {
			t.Fatalf("%s detected as format %d", path, r.FormatVersion())
		}
		it := r.NewIter()
		i := 0
		for it.First(); it.Valid(); it.Next() {
			wantKey := fmt.Sprintf("key%05d", i)
			wantVal := strings.Repeat(fmt.Sprintf("value-%05d-%05d-", i, i*7), 4)
			if string(base.UserKey(it.Key())) != wantKey || string(it.Value()) != wantVal {
				t.Fatalf("%s entry %d: %q -> %q", path, i, base.UserKey(it.Key()), it.Value())
			}
			i++
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if i != 500 || codec.BlocksDecompressed.Load() == 0 {
			t.Fatalf("%s: iterated %d entries, %d blocks inflated; want 500 from compressed blocks",
				path, i, codec.BlocksDecompressed.Load())
		}
		search := base.MakeSearchKey(nil, []byte("key00123"), base.MaxSeqNum)
		if _, v, ok, err := r.Get(search); err != nil || !ok || !strings.HasPrefix(string(v), "value-00123-") {
			t.Fatalf("%s get key00123: %q ok=%v err=%v", path, v, ok, err)
		}
		if !r.MayContain([]byte("key00042")) || !r.MayContainPrefix([]byte("nope")) {
			t.Fatalf("%s: key filter lost a present key, or a missing prefix filter said no", path)
		}
		rd := r.RangeDels()
		if version == formatV2 {
			if rd != nil {
				t.Fatalf("%s reports range tombstones", path)
			}
		} else {
			// [key00100,key00200)@600 and [key00150,key00300)@700.
			for key, want := range map[string]base.SeqNum{
				"key00099": 0, "key00100": 600, "key00149": 600, "key00150": 700, "key00299": 700, "key00300": 0,
			} {
				if got := rd.CoverSeq([]byte(key), base.MaxSeqNum); got != want {
					t.Errorf("%s CoverSeq(%s) = %d, want %d", path, key, got, want)
				}
			}
		}
		r.Close()
	}
}

// buildSingleBlockSnappyTable writes a table with exactly one, compressed
// data block and no filter, returning the raw file image and the data
// block's physical payload length.
func buildSingleBlockSnappyTable(t *testing.T, fs vfs.FS, name string) (data []byte, payloadLen uint64) {
	t.Helper()
	info := buildTable(t, fs, name, compressibleEntries(50), WriterOptions{
		BlockSize:       1 << 20, // everything fits one block
		BloomBitsPerKey: 0,
		Compression:     compress.Snappy,
	})
	if info.Compression.CompressedBlocks != 1 || info.Compression.DataBlocks != 1 {
		t.Fatalf("expected 1 compressed data block, got %+v", info.Compression)
	}
	size, _ := fs.Stat(name)
	f, _ := fs.Open(name)
	data = make([]byte, size)
	if err := fullReadAt(f, data, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// No filter => the index block directly follows the data block, so the
	// footer's index offset gives the data block extent.
	footer := data[len(data)-footerLenV4:]
	indexOff := binary.LittleEndian.Uint64(footer[16:])
	return data, indexOff - blockTrailerLenV2
}

func openRaw(t *testing.T, data []byte) (*Reader, error) {
	t.Helper()
	fs := vfs.NewMem()
	f, _ := fs.Create("raw.sst")
	f.Write(data)
	f.Close()
	rf, _ := fs.Open("raw.sst")
	return Open(rf, int64(len(data)), 9, nil, nil)
}

func scanAll(r *Reader) error {
	it := r.NewIter()
	for it.First(); it.Valid(); it.Next() {
	}
	return it.Close()
}

// TestCorruptCompressedBlock covers the three failure layers of a v2
// compressed block: a bit flip caught by the checksum, a checksum-valid
// stream the codec rejects, and an unknown block-type tag.
func TestCorruptCompressedBlock(t *testing.T) {
	fs := vfs.NewMem()
	data, payloadLen := buildSingleBlockSnappyTable(t, fs, "good.sst")

	fixup := func(img []byte) {
		// Recompute the trailer crc so corruption survives the checksum.
		payload := img[:payloadLen]
		img[payloadLen+1+0] = 0 // scratch
		binary.LittleEndian.PutUint32(img[payloadLen+1:], crc.ValueExtended(payload, img[payloadLen:payloadLen+1]))
	}

	t.Run("bit-flip", func(t *testing.T) {
		img := append([]byte(nil), data...)
		img[payloadLen/2] ^= 0xff
		r, err := openRaw(t, img)
		if err == nil {
			err = scanAll(r)
			r.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("valid-crc-bad-snappy", func(t *testing.T) {
		img := append([]byte(nil), data...)
		// Truncate the stream's content mid-element: keep the header varint
		// but garble everything after it, then fix the crc.
		for i := uint64(4); i < payloadLen; i++ {
			img[i] = 0xff
		}
		fixup(img)
		r, err := openRaw(t, img)
		if err == nil {
			err = scanAll(r)
			r.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("unknown-block-type", func(t *testing.T) {
		img := append([]byte(nil), data...)
		img[payloadLen] = 0x07
		payload := img[:payloadLen]
		binary.LittleEndian.PutUint32(img[payloadLen+1:], crc.ValueExtended(payload, img[payloadLen:payloadLen+1]))
		r, err := openRaw(t, img)
		if err == nil {
			err = scanAll(r)
			r.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("unknown-footer-version", func(t *testing.T) {
		img := append([]byte(nil), data...)
		img[len(img)-footerLenV4+64] = 9
		if _, err := openRaw(t, img); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// TestCompressionShrinksTables checks the 12.5% rule end to end: the
// compressible table shrinks well past the threshold, the incompressible
// one stays raw, and both read back correctly.
func TestCompressionShrinksTables(t *testing.T) {
	fs := vfs.NewMem()
	entries := compressibleEntries(2000)

	raw := buildTable(t, fs, "raw.sst", entries, WriterOptions{Compression: compress.None})
	snap := buildTable(t, fs, "snappy.sst", entries, WriterOptions{Compression: compress.Snappy})

	if snap.Size >= raw.Size*3/4 {
		t.Fatalf("snappy table %d bytes, raw %d: expected >25%% saving", snap.Size, raw.Size)
	}
	if snap.Compression.CompressedBlocks == 0 || snap.Compression.Ratio() > 0.75 {
		t.Fatalf("compression stats %+v", snap.Compression)
	}
	if raw.Compression.PhysicalDataBytes != raw.Compression.LogicalDataBytes {
		t.Fatalf("uncompressed table should have equal logical/physical: %+v", raw.Compression)
	}

	r := openTable(t, fs, "snappy.sst", nil)
	defer r.Close()
	it := r.NewIter()
	defer it.Close()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), entries[i].ikey) || !bytes.Equal(it.Value(), entries[i].value) {
			t.Fatalf("entry %d mismatch reading compressed table", i)
		}
		i++
	}
	if i != len(entries) {
		t.Fatalf("read %d of %d entries", i, len(entries))
	}
}

// TestIncompressibleBlocksStayRaw: blocks that don't clear the 12.5%
// saving are stored with the none type even under Snappy options.
func TestIncompressibleBlocksStayRaw(t *testing.T) {
	fs := vfs.NewMem()
	entries := sortedEntries(300, 11)
	// Make values truly incompressible random bytes.
	rng := rand.New(rand.NewSource(99))
	for i := range entries {
		v := make([]byte, 64)
		rng.Read(v)
		entries[i].value = v
	}
	info := buildTable(t, fs, "t.sst", entries, WriterOptions{Compression: compress.Snappy})
	if info.Compression.CompressedBlocks != 0 {
		t.Fatalf("incompressible blocks were compressed: %+v", info.Compression)
	}
	r := openTable(t, fs, "t.sst", nil)
	defer r.Close()
	if err := scanAll(r); err != nil {
		t.Fatal(err)
	}
}

// TestCacheChargesDecompressedBytes: the block cache must hold and charge
// the inflated payload, so hits skip the codec and capacity is honest
// about resident memory.
func TestCacheChargesDecompressedBytes(t *testing.T) {
	fs := vfs.NewMem()
	info := buildTable(t, fs, "t.sst", compressibleEntries(2000), WriterOptions{
		BlockSize:   4 << 10,
		Compression: compress.Snappy,
	})
	cs := info.Compression
	if cs.PhysicalDataBytes >= cs.LogicalDataBytes*3/4 {
		t.Fatalf("table not compressed enough for the test: %+v", cs)
	}

	c := cache.New(64<<20, nil)
	var codec CodecStats
	f, _ := fs.Open("t.sst")
	size, _ := fs.Stat("t.sst")
	r, err := Open(f, size, 1, c, &codec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := scanAll(r); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().UsedBytes; got != cs.LogicalDataBytes {
		t.Fatalf("cache charged %d bytes, want decompressed %d", got, cs.LogicalDataBytes)
	}
	decompressed := codec.BlocksDecompressed.Load()
	if decompressed != cs.CompressedBlocks {
		t.Fatalf("decompressed %d blocks, want %d", decompressed, cs.CompressedBlocks)
	}

	// Second scan: all cache hits, zero additional codec work.
	if err := scanAll(r); err != nil {
		t.Fatal(err)
	}
	if again := codec.BlocksDecompressed.Load(); again != decompressed {
		t.Fatalf("cache hits still decompressed (%d -> %d)", decompressed, again)
	}
}

// TestSequentialIterMatchesRandom: the readahead iterator must observe the
// same sequence as the per-block path, and must not populate the cache.
func TestSequentialIterMatchesRandom(t *testing.T) {
	fs := vfs.NewMem()
	entries := compressibleEntries(5000)
	buildTable(t, fs, "t.sst", entries, WriterOptions{
		BlockSize:   1 << 10,
		Compression: compress.Snappy,
	})
	c := cache.New(64<<20, nil)
	r := openTable(t, fs, "t.sst", c)
	defer r.Close()

	seq := r.NewSequentialIter()
	defer seq.Close()
	i := 0
	for seq.First(); seq.Valid(); seq.Next() {
		if !bytes.Equal(seq.Key(), entries[i].ikey) || !bytes.Equal(seq.Value(), entries[i].value) {
			t.Fatalf("sequential entry %d mismatch", i)
		}
		i++
	}
	if err := seq.Error(); err != nil {
		t.Fatal(err)
	}
	if i != len(entries) {
		t.Fatalf("sequential scan read %d of %d", i, len(entries))
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("sequential scan populated the cache: %+v", st)
	}

	// Seeks reposition the window arbitrarily; results must still match.
	seq2 := r.NewSequentialIter()
	defer seq2.Close()
	for _, idx := range []int{4000, 100, 2500, 0, len(entries) - 1} {
		seq2.SeekGE(entries[idx].ikey)
		if !seq2.Valid() || !bytes.Equal(seq2.Key(), entries[idx].ikey) {
			t.Fatalf("sequential SeekGE to %d failed", idx)
		}
	}
}

// TestV2RoundTripAcrossFormats writes v2 with compression, reopens, and
// spot-checks reverse iteration across compressed block boundaries.
func TestV2ReverseAcrossCompressedBlocks(t *testing.T) {
	fs := vfs.NewMem()
	entries := compressibleEntries(3000)
	buildTable(t, fs, "t.sst", entries, WriterOptions{
		BlockSize:   512,
		Compression: compress.Snappy,
	})
	r := openTable(t, fs, "t.sst", nil)
	defer r.Close()
	it := r.NewIter()
	defer it.Close()
	i := len(entries) - 1
	for it.Last(); it.Valid(); it.Prev() {
		if !bytes.Equal(it.Key(), entries[i].ikey) {
			t.Fatalf("reverse entry %d mismatch", i)
		}
		i--
	}
	if i != -1 {
		t.Fatalf("reverse scan stopped at %d", i+1)
	}
}

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

// TestRetiredFormatsRejected opens one table of each format builds before
// PR 14 wrote (testdata/v{1,2,3}-format.sst, 500 entries each): they are no
// longer a supported input, and Open must say which format it refused rather
// than misparse a shorter footer.
func TestRetiredFormatsRejected(t *testing.T) {
	for version := 1; version <= 3; version++ {
		path := fmt.Sprintf("testdata/v%d-format.sst", version)
		size, err := vfs.Default.Stat(path)
		if err != nil {
			t.Fatalf("fixture missing: %v", err)
		}
		f, err := vfs.Default.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(f, size, 1, nil, nil)
		if err == nil {
			r.Close()
			t.Fatalf("%s opened", path)
		}
		f.Close()
		want := fmt.Sprintf("table format v%d, written by a build before PR 14", version)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got %v, want ErrCorrupt naming %q", path, err, want)
		}
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
	footer := data[len(data)-footerLen:]
	indexOff := binary.LittleEndian.Uint64(footer[16:])
	return data, indexOff - blockTrailerLen
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

// TestCorruptCompressedBlock covers the three failure layers of a
// compressed block: a bit flip caught by the checksum, a checksum-valid
// stream the codec rejects, and an unknown block-type tag; then the footer,
// which no checksum covers.
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

	// offset+length wraps to 10: a bounds check that adds before it compares
	// passes it and Open dies slicing the file.
	t.Run("index-handle-wraps", func(t *testing.T) {
		img := append([]byte(nil), data...)
		footer := img[len(img)-footerLen:]
		binary.LittleEndian.PutUint64(footer[16:], 1<<64-10)
		binary.LittleEndian.PutUint64(footer[24:], 20)
		if _, err := openRaw(t, img); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("unknown-footer-version", func(t *testing.T) {
		img := append([]byte(nil), data...)
		img[len(img)-footerLen+64] = 9
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

	c := cache.New(64 << 20)
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
	c := cache.New(64 << 20)
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

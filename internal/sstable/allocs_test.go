package sstable

import (
	"fmt"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/race"
	"pebblesdb/internal/vfs"
)

// buildAllocTable writes a small table and returns a Reader backed by a
// block cache large enough to hold every data block.
func buildAllocTable(t *testing.T, n int) *Reader {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("alloc.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, WriterOptions{BloomBitsPerKey: 10, Compression: compress.Snappy})
	for i := 0; i < n; i++ {
		ik := base.MakeInternalKey(nil, []byte(fmt.Sprintf("key%06d", i)), base.SeqNum(i)+1, base.KindSet)
		if err := w.Add(ik, []byte(fmt.Sprintf("value%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fs.Open("alloc.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(rf, int64(info.Size), 1, cache.New(32<<20), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGetScratchedAllocs pins the sstable probe budgets: with a warm block
// cache, a hit probe, a probe miss, and a bloom-filter rejection are all
// allocation-free.
func TestGetScratchedAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	r := buildAllocTable(t, 2000)
	defer r.Close()

	s := AcquireGetScratch()
	defer ReleaseGetScratch(s)
	hit := base.MakeSearchKey(nil, []byte("key000042"), base.MaxSeqNum)
	// Same length as real keys so the bloom filter, not the key shape,
	// decides; a missing key that reaches the blocks exercises the probe's
	// miss path.
	missing := base.MakeSearchKey(nil, []byte("key999999"), base.MaxSeqNum)

	// Warm: first probes grow the scratch's key buffers and fill the cache.
	if _, _, _, found, err := r.GetScratched(hit, s); err != nil || !found {
		t.Fatalf("warm hit: found=%v err=%v", found, err)
	}
	if _, _, _, _, err := r.GetScratched(missing, s); err != nil {
		t.Fatalf("warm miss: %v", err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, found, err := r.GetScratched(hit, s); err != nil || !found {
			t.Fatalf("hit: found=%v err=%v", found, err)
		}
	})
	if allocs > 0 {
		t.Errorf("GetScratched(hit) allocs/op = %v, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(100, func() {
		if _, _, _, found, err := r.GetScratched(missing, s); err != nil || found {
			t.Fatalf("miss: found=%v err=%v", found, err)
		}
	})
	if allocs > 0 {
		t.Errorf("GetScratched(miss) allocs/op = %v, want 0", allocs)
	}

	// The bloom pre-filter itself must be allocation-free so a filtered-out
	// table costs no memory at all.
	ukey := []byte("nonexistent-key")
	allocs = testing.AllocsPerRun(100, func() {
		r.MayContain(ukey)
	})
	if allocs > 0 {
		t.Errorf("MayContain allocs/op = %v, want 0", allocs)
	}
}

// discardFile is a table file that keeps nothing, so that what a Writer is
// seen to allocate is the Writer's.
type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) ReadAt([]byte, int64) (int, error) {
	return 0, fmt.Errorf("discardFile: not readable")
}
func (discardFile) Close() error { return nil }
func (discardFile) Sync() error  { return nil }

// TestWriterAddAllocs pins the table writer's budget: once a writer's
// scratch has grown over one table — block builders, compression buffer,
// the hash lists the two filters are built from — a second table's Adds
// allocate nothing, whether they finish a data block or not. What is left
// per table is the copy of its smallest key, which outlives the writer in
// the table's metadata. A copy of every user key for the filter, a trailer
// per block, would be thousands.
func TestWriterAddAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 5000
	keys, value := make([][]byte, n), make([]byte, 100)
	for i := range keys {
		keys[i] = base.MakeInternalKey(nil, []byte(fmt.Sprintf("key%06d", i)), base.SeqNum(i)+1, base.KindSet)
	}
	w := NewWriter(discardFile{}, WriterOptions{BloomBitsPerKey: 10, PrefixBloomLength: 7, Compression: compress.Snappy})
	table := func() {
		w.Reset(discardFile{})
		for _, k := range keys {
			if err := w.Add(k, value); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, table); allocs > 1 {
		t.Errorf("a table of %d Adds allocates %v times, want once (its smallest key)", n, allocs)
	}
	info, err := w.Finish()
	if err != nil || info.Count != n || info.Compression.DataBlocks < 100 {
		t.Fatalf("Finish: %+v, %v", info, err)
	}
}

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

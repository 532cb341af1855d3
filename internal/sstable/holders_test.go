package sstable

import (
	"bytes"
	"math/rand"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/race"
	"pebblesdb/internal/vfs"
)

// TestHoldersAgainstRecycledBlocks runs the three kinds of block holder
// over one table side by side: a table iterator walks it, forward and then
// backward, a sequential iterator scans it, and a get scratch probes a
// random key between any two steps. With a cache too small to keep a block,
// every block a holder lets go of is recycled at once — under the race
// detector poisoned — and with a large one the holders share blocks with
// the cache and with each other. Either way a value must read right for as
// long as its holder has not moved: one read from a block let go too early,
// or kept across a move, comes back as another block's bytes or as 0xCC.
func TestHoldersAgainstRecycledBlocks(t *testing.T) {
	fs := vfs.NewMem()
	entries := sortedEntries(3000, 11)
	buildTable(t, fs, "t.sst", entries, WriterOptions{BlockSize: 512, BloomBitsPerKey: 10})
	for _, cacheBytes := range []int64{1, 1 << 20} {
		r := openTable(t, fs, "t.sst", cache.New(cacheBytes))
		rng := rand.New(rand.NewSource(cacheBytes))
		s := AcquireGetScratch()
		probe := func() {
			t.Helper()
			e := entries[rng.Intn(len(entries))]
			search := base.MakeSearchKey(nil, base.UserKey(e.ikey), base.MaxSeqNum)
			v, _, _, found, err := r.GetScratched(search, s)
			if err != nil || !found || !bytes.Equal(v, e.value) {
				t.Fatalf("cache %d: probe of %s: %q found=%v err=%v", cacheBytes, base.UserKey(e.ikey), v, found, err)
			}
		}
		at := func(what string, key, value []byte, e kv) {
			t.Helper()
			if !bytes.Equal(key, e.ikey) || !bytes.Equal(value, e.value) {
				t.Fatalf("cache %d: %s at %q = %q, want %q = %q", cacheBytes, what, key, value, e.ikey, e.value)
			}
		}

		it, seq := r.NewIter(), r.NewSequentialIter()
		i := 0
		seq.First()
		for it.First(); it.Valid(); it.Next() {
			v, sv := it.Value(), seq.Value() // held across the probes
			probe()
			probe()
			at("iterator", it.Key(), v, entries[i])
			at("sequential iterator", seq.Key(), sv, entries[i])
			seq.Next()
			i++
		}
		if i != len(entries) || seq.Valid() {
			t.Fatalf("cache %d: forward walk saw %d of %d entries", cacheBytes, i, len(entries))
		}
		for it.Last(); it.Valid(); it.Prev() {
			i--
			v := it.Value()
			probe()
			at("iterator, backward", it.Key(), v, entries[i])
		}
		if i != 0 {
			t.Fatalf("cache %d: backward walk stopped %d entries short", cacheBytes, i)
		}
		// A re-seek lets go of the block the iterator was on and, with
		// nothing cached, reads the one it lands on into a recycled buffer.
		for n := 0; n < 500; n++ {
			j := rng.Intn(len(entries))
			it.SeekGE(entries[j].ikey)
			v := it.Value()
			probe()
			at("iterator, after a seek", it.Key(), v, entries[j])
		}
		for _, err := range []error{it.Close(), seq.Close()} {
			if err != nil {
				t.Fatal(err)
			}
		}
		ReleaseGetScratch(s)
		r.Close()
	}
}

// TestColdReadsRecycleBlocks: with nothing cached, a probe and a seek each
// read a block into the buffer the previous one gave back — no holder keeps
// a block it has moved off, or each read would allocate its payload.
func TestColdReadsRecycleBlocks(t *testing.T) {
	if race.Enabled {
		t.Skip("under the race detector released buffers are poisoned, not reused")
	}
	fs := vfs.NewMem()
	entries := sortedEntries(3000, 12)
	buildTable(t, fs, "t.sst", entries, WriterOptions{BlockSize: 512, BloomBitsPerKey: 10})
	blocks := cache.New(1)
	r := openTable(t, fs, "t.sst", blocks)
	defer r.Close()

	s := AcquireGetScratch()
	defer ReleaseGetScratch(s)
	var it TableIter
	if err := it.Init(r); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var searches [][]byte
	for i := 0; i < len(entries); i += 97 {
		searches = append(searches, base.MakeSearchKey(nil, base.UserKey(entries[i].ikey), base.MaxSeqNum))
	}
	reads := func() {
		for _, search := range searches {
			if _, _, _, found, err := r.GetScratched(search, s); err != nil || !found {
				t.Fatalf("probe: found=%v err=%v", found, err)
			}
			if it.SeekGE(search); !it.Valid() {
				t.Fatalf("seek found nothing: %v", it.Error())
			}
		}
	}
	reads()
	before := blocks.Stats()
	allocs := testing.AllocsPerRun(20, reads) / float64(2*len(searches))
	if after := blocks.Stats(); after.Hits != before.Hits {
		t.Fatalf("%d reads hit a cache that holds nothing", after.Hits-before.Hits)
	}
	if allocs > 0 {
		t.Errorf("cold block read allocs/op = %.2f, want 0", allocs)
	}
}

package pebblesdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestNoBlockReferenceLeaks is ROADMAP 3(a)'s check on cache.Buf: at rest —
// no Get in flight, every iterator and snapshot closed, compaction idle —
// every block the cache holds is referenced by the cache alone. Entries move
// between the cache's queues while readers hold their payloads, and a holder
// that forgot a Release would show as an entry still held. Both layouts,
// with a cache that holds the data and with one of a byte, which holds
// nothing, so that every block read goes back to the pool — under -race is
// poisoned — as soon as its reader lets go. Every value read is checked
// while its iterator stays put and Gets run beside it, so a block read after
// its release fails the test.
func TestNoBlockReferenceLeaks(t *testing.T) {
	const n = 4000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	value := func(i, gen int) []byte { return []byte(fmt.Sprintf("value-%05d-gen%d-%0100d", i, gen, i)) }
	// latest is the generation of key i a read of the live store sees: the
	// second overwrote every third key.
	latest := func(i int) int {
		if i%3 == 0 {
			return 1
		}
		return 0
	}
	for _, p := range []Preset{PresetPebblesDB, PresetHyperLevelDB} {
		for _, cacheBytes := range []int64{8 << 20, 1} {
			t.Run(fmt.Sprintf("%s/cache=%d", p, cacheBytes), func(t *testing.T) {
				o := testOptions(p)
				o.BlockCacheSize = cacheBytes
				o.PrefixBloomLength = 5
				db, err := Open("refs", o)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				for i := 0; i < n; i++ {
					if err := db.Put(key(i), value(i, 0)); err != nil {
						t.Fatal(err)
					}
				}
				snap := db.NewSnapshot()
				for i := 0; i < n; i += 3 {
					if err := db.Put(key(i), value(i, 1)); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := db.WaitIdle(); err != nil {
					t.Fatal(err)
				}
				blocks := db.eng.BlockCache()

				// Each reader with the index of the key it is on, its step,
				// and the generation it sees.
				type reader struct {
					name string
					it   *Iterator
					i    int
					step int
					gen  func(int) int
				}
				open := func(name string, opts *IterOptions, start, step int, gen func(int) int, position func(*Iterator)) *reader {
					it, err := db.NewIter(opts)
					if err != nil {
						t.Fatal(err)
					}
					position(it)
					return &reader{name, it, start, step, gen}
				}
				first, last := (*Iterator).First, (*Iterator).Last
				old := func(int) int { return 0 }
				readers := []*reader{
					open("forward", nil, 0, 1, latest, first),
					open("reverse", nil, n-1, -1, latest, last),
					open("prefix", &IterOptions{Prefix: []byte("key01")}, 1000, 1, latest, first),
					open("snapshot, reverse", &IterOptions{Snapshot: snap}, n-1, -1, old, last),
					open("snapshot, seek", &IterOptions{Snapshot: snap}, 2500, 1, old, func(it *Iterator) { it.SeekGE(key(2500)) }),
				}
				rng := rand.New(rand.NewSource(cacheBytes))
				heldWhileReading := 0
				for step := 0; ; step++ {
					moved := false
					for _, r := range readers {
						if !r.it.Valid() {
							continue
						}
						k, v := r.it.Key(), r.it.Value() // kept across the Gets below
						j := rng.Intn(n)
						if got, ok, err := db.Get(key(j), nil); err != nil || !ok || !bytes.Equal(got, value(j, latest(j))) {
							t.Fatalf("Get(%s) = %q, %v, %v", key(j), got, ok, err)
						}
						if got, ok, err := db.GetAt(key(j), snap); err != nil || !ok || !bytes.Equal(got, value(j, 0)) {
							t.Fatalf("GetAt(%s) = %q, %v, %v", key(j), got, ok, err)
						}
						if !bytes.Equal(k, key(r.i)) || !bytes.Equal(v, value(r.i, r.gen(r.i))) {
							t.Fatalf("%s iterator at %q = %q, want %s = %q", r.name, k, v, key(r.i), value(r.i, r.gen(r.i)))
						}
						if r.step > 0 {
							r.it.Next()
						} else {
							r.it.Prev()
						}
						r.i += r.step
						moved = true
					}
					if step == 100 {
						heldWhileReading = blocks.Held()
					}
					if !moved {
						break
					}
				}
				wantEnd := map[string]int{"forward": n, "reverse": -1, "prefix": 2000, "snapshot, reverse": -1, "snapshot, seek": n}
				for _, r := range readers {
					if r.i != wantEnd[r.name] {
						t.Errorf("%s iterator stopped at %d, want %d", r.name, r.i, wantEnd[r.name])
					}
					if err := r.it.Close(); err != nil {
						t.Fatal(err)
					}
				}
				snap.Close()
				if err := db.WaitIdle(); err != nil {
					t.Fatal(err)
				}
				st := blocks.Stats()
				if cacheBytes > 1 && (heldWhileReading == 0 || st.Entries == 0) {
					t.Fatalf("the walk saw %d held entries with five iterators open, %d cached: it counts nothing", heldWhileReading, st.Entries)
				}
				if held := blocks.Held(); held != 0 {
					t.Fatalf("%d of %d cached blocks still held with every reader closed", held, st.Entries)
				}
			})
		}
	}
}

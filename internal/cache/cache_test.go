package cache

import (
	"sync"
	"testing"

	"pebblesdb/internal/race"
)

func TestGetSetBasics(t *testing.T) {
	c := New(1 << 20)
	k := Key{File: 1, Off: 0}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache should miss")
	}
	c.Set(k, []byte("value"), 5)
	v, ok := c.Get(k)
	if !ok || string(v) != "value" {
		t.Fatal("get after set failed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.UsedBytes != 5 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReplaceUpdatesCharge(t *testing.T) {
	c := New(1 << 20)
	k := Key{File: 1}
	c.Set(k, []byte("a"), 10)
	c.Set(k, []byte("b"), 20)
	if v, _ := c.Get(k); string(v) != "b" {
		t.Fatal("replace failed")
	}
	if st := c.Stats(); st.UsedBytes != 20 || st.Entries != 1 {
		t.Fatalf("stats after replace: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// Total capacity small enough that every shard holds at most one
	// 10-byte entry.
	c := New(numShards * 10)
	for i := uint64(0); i < 100; i++ {
		c.Set(Key{File: i}, []byte{byte(i)}, 10)
	}
	st := c.Stats()
	if st.Entries == 0 || st.Entries > numShards || st.UsedBytes != int64(st.Entries)*10 {
		t.Fatalf("stats after 100 inserts: %+v", st)
	}
	// Within a shard the survivor is the most recently set key.
	if v, ok := c.Get(Key{File: 99}); !ok || v[0] != 99 {
		t.Fatal("most recent insert was evicted")
	}
}

func TestDeleteFile(t *testing.T) {
	c := New(1 << 20)
	c.Set(Key{File: 1, Off: 0}, []byte("a"), 1)
	c.Set(Key{File: 1, Off: 100}, []byte("b"), 1)
	c.Set(Key{File: 2, Off: 0}, []byte("c"), 1)

	c.DeleteFile(1)
	if _, ok := c.Get(Key{File: 1, Off: 0}); ok {
		t.Fatal("DeleteFile left entries")
	}
	if _, ok := c.Get(Key{File: 1, Off: 100}); ok {
		t.Fatal("DeleteFile left entries")
	}
	if _, ok := c.Get(Key{File: 2, Off: 0}); !ok {
		t.Fatal("DeleteFile removed another file's entry")
	}
	if st := c.Stats(); st.Entries != 1 || st.UsedBytes != 1 {
		t.Fatalf("stats after DeleteFile: %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1024)
	val := []byte("v")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{File: uint64(i % 100), Off: uint64(g)}
				if i%3 == 0 {
					c.Set(k, val, 4)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSetEvictDoesNotAllocate pins the insert budget of DESIGN.md
// "Allocation budget per layer": a full cache takes a block on the entry its
// eviction freed.
func TestSetEvictDoesNotAllocate(t *testing.T) {
	c := New(numShards * 64)
	block := make([]byte, 8)
	for i := uint64(0); i < 1024; i++ {
		c.Set(Key{File: 1, Off: i}, block, 8)
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(2000, func() {
		c.Set(Key{File: 2, Off: i}, block, 8)
		i++
	}); n != 0 {
		t.Fatalf("Set into a full cache: %v allocs/op, want 0", n)
	}
}

// BenchmarkSetEvict is the block cache's miss path: a full cache takes a
// block and drops its least recently used one.
func BenchmarkSetEvict(b *testing.B) {
	const blockSize = 4 << 10
	c := New(1 << 20)
	block := make([]byte, blockSize)
	for i := 0; i < 1024; i++ {
		c.Set(Key{File: 1, Off: uint64(i) * blockSize}, block, blockSize)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Set(Key{File: 2, Off: uint64(i) * blockSize}, block, blockSize)
	}
}

// fill returns a buffer of n bytes from the pool, every byte v, with the
// caller's one reference.
func fill(n int, v byte) *Buf {
	b := Alloc(n)
	p := b.Bytes()
	for i := range p {
		p[i] = v
	}
	return b
}

// put caches a block of n bytes, every byte v, under k, as a read that
// missed does: the cache is left the only holder.
func put(c *Cache, k Key, n int, v byte) {
	b := fill(n, v)
	c.Insert(k, b, int64(n))
	b.Release()
}

// holds reports whether every byte of p is v.
func holds(p []byte, v byte) bool {
	for _, c := range p {
		if c != v {
			return false
		}
	}
	return len(p) > 0
}

// TestHolderOutlivesItsEntry: a reader that acquired a block keeps reading
// the bytes it acquired after the cache has evicted the entry, replaced it
// and deleted its file, while other goroutines push blocks of the same size
// class through the cache — each of which is recycled (or, under the race
// detector, poisoned) the moment nobody holds it. The reader's block may be
// neither.
func TestHolderOutlivesItsEntry(t *testing.T) {
	const size = 4000
	c := New(numShards * 2 * size)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := Key{File: uint64(100 + g), Off: uint64(i % 64)}
				v := byte(k.Off)
				if b := c.Acquire(k); b != nil {
					if !holds(b.Bytes(), v) {
						t.Errorf("block %v read back wrong while held", k)
					}
					b.Release()
					continue
				}
				put(c, k, size, v)
			}
		}(g)
	}

	k := Key{File: 1, Off: 7}
	drop := map[string]func(){
		"evicted": func() {
			for i := 0; i < 8*numShards; i++ {
				put(c, Key{File: 2, Off: uint64(i)}, size, 0xEE)
			}
		},
		"replaced": func() { put(c, k, size, 0x22) },
		"deleted":  func() { c.DeleteFile(k.File) },
	}
	for name, dropEntry := range drop {
		put(c, k, size, 0x11)
		held := c.Acquire(k)
		if held == nil {
			t.Fatalf("%s: the block just inserted is not cached", name)
		}
		dropEntry()
		if now := c.Acquire(k); now == held {
			t.Fatalf("%s: the entry is still there", name)
		} else {
			now.Release()
		}
		// Give the churn time to take the buffer, had it been let go.
		for i := 0; i < 200; i++ {
			fill(size, 0x33).Release()
		}
		if !holds(held.Bytes(), 0x11) {
			t.Fatalf("%s: a held block changed under its holder", name)
		}
		held.Release()
	}
	close(stop)
	churn.Wait()
}

// TestLastReleaseRecyclesOrPoisons pins what becomes of a buffer nobody
// holds: the next Alloc of its size class gets it, without allocating, or —
// under the race detector — nobody does and it reads 0xCC from then on, so
// that a holder that kept reading shows up in any test that checks what it
// reads.
func TestLastReleaseRecyclesOrPoisons(t *testing.T) {
	b := fill(4000, 0x44)
	stale := b.Bytes() // kept past the release on purpose
	c := New(1 << 20)
	c.Insert(Key{File: 1}, b, 4000)
	b.Release()
	if !holds(stale, 0x44) {
		t.Fatal("the cache's reference did not keep the block")
	}
	c.DeleteFile(1)
	if race.Enabled {
		if !holds(stale, 0xCC) {
			t.Fatal("a block nobody holds was not poisoned")
		}
		return
	}
	if n := testing.AllocsPerRun(1000, func() { Alloc(4000).Release() }); n != 0 {
		t.Fatalf("Alloc after Release: %v allocs/op, want the released buffer", n)
	}
	// A payload above the largest class is not pooled, in or out.
	if n := testing.AllocsPerRun(10, func() { Alloc(numClasses*classBytes + 1).Release() }); n == 0 {
		t.Fatal("a buffer above the largest size class came out of a pool")
	}
}

// TestReleaseBelowZeroPanics: one Release too many is a holder's bug in
// every build, not only where buffers are poisoned.
func TestReleaseBelowZeroPanics(t *testing.T) {
	b := Alloc(10 * classBytes) // a class no other test draws from
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a Release below zero went through")
		}
	}()
	b.Release()
}

// TestInsertEvictDoesNotAllocate is the product path's miss: a block from
// the pool goes into a full cache, whose eviction hands the next miss its
// buffer.
func TestInsertEvictDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("under the race detector released buffers are poisoned, not reused")
	}
	const size = 4000
	c := New(numShards * 4 * size)
	i := uint64(0)
	miss := func() {
		put(c, Key{File: 1, Off: i}, size, 0)
		i++
	}
	for i < 1024 {
		miss()
	}
	if n := testing.AllocsPerRun(2000, miss); n != 0 {
		t.Fatalf("Insert into a full cache: %v allocs/op, want 0", n)
	}
}

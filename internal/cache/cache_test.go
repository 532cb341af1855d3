package cache

import (
	"sync"
	"testing"
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

package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetSetBasics(t *testing.T) {
	c := New(1<<20, nil)
	k := Key{File: 1, Off: 0}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache should miss")
	}
	c.Set(k, "value", 5)
	v, ok := c.Get(k)
	if !ok || v.(string) != "value" {
		t.Fatal("get after set failed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.UsedBytes != 5 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReplaceUpdatesCharge(t *testing.T) {
	evicted := 0
	c := New(1<<20, func(Key, interface{}) { evicted++ })
	k := Key{File: 1}
	c.Set(k, "a", 10)
	c.Set(k, "b", 20)
	if v, _ := c.Get(k); v.(string) != "b" {
		t.Fatal("replace failed")
	}
	if st := c.Stats(); st.UsedBytes != 20 {
		t.Fatalf("used bytes %d", st.UsedBytes)
	}
	if evicted != 1 {
		t.Fatalf("replaced value should be evicted once, got %d", evicted)
	}
}

func TestLRUEviction(t *testing.T) {
	var evicted []Key
	var mu sync.Mutex
	// One shard gets capacity/numShards bytes; use keys in a single shard
	// by keeping Off=0 and trying many File values until two share a
	// shard... simpler: total capacity small enough that any shard is
	// tiny.
	c := New(16*10, func(k Key, _ interface{}) {
		mu.Lock()
		evicted = append(evicted, k)
		mu.Unlock()
	})
	// Insert many 10-byte entries: every shard holds at most one.
	for i := uint64(0); i < 100; i++ {
		c.Set(Key{File: i}, i, 10)
	}
	if len(evicted) == 0 {
		t.Fatal("expected evictions")
	}
	st := c.Stats()
	if st.Entries+len(evicted) != 100 {
		t.Fatalf("entries %d + evicted %d != 100", st.Entries, len(evicted))
	}
}

func TestDeleteAndDeleteFile(t *testing.T) {
	evicted := map[Key]bool{}
	c := New(1<<20, func(k Key, _ interface{}) { evicted[k] = true })
	c.Set(Key{File: 1, Off: 0}, "a", 1)
	c.Set(Key{File: 1, Off: 100}, "b", 1)
	c.Set(Key{File: 2, Off: 0}, "c", 1)

	c.Delete(Key{File: 2, Off: 0})
	if _, ok := c.Get(Key{File: 2, Off: 0}); ok {
		t.Fatal("deleted key still present")
	}
	c.DeleteFile(1)
	if _, ok := c.Get(Key{File: 1, Off: 0}); ok {
		t.Fatal("DeleteFile left entries")
	}
	if _, ok := c.Get(Key{File: 1, Off: 100}); ok {
		t.Fatal("DeleteFile left entries")
	}
	if len(evicted) != 3 {
		t.Fatalf("evicted %d entries", len(evicted))
	}
}

func TestGetHoldRunsUnderLock(t *testing.T) {
	c := New(1<<20, nil)
	k := Key{File: 9}
	c.Set(k, "v", 1)
	held := false
	v, ok := c.GetHold(k, func(v interface{}) { held = v.(string) == "v" })
	if !ok || !held || v.(string) != "v" {
		t.Fatal("GetHold callback not invoked correctly")
	}
}

func TestClear(t *testing.T) {
	n := 0
	c := New(1<<20, func(Key, interface{}) { n++ })
	for i := uint64(0); i < 50; i++ {
		c.Set(Key{File: i}, i, 1)
	}
	c.Clear()
	if n != 50 {
		t.Fatalf("clear evicted %d", n)
	}
	if st := c.Stats(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Fatalf("stats after clear: %+v", st)
	}
}

func TestRange(t *testing.T) {
	c := New(1<<20, nil)
	for i := uint64(0); i < 20; i++ {
		c.Set(Key{File: i}, fmt.Sprint(i), 1)
	}
	seen := 0
	c.Range(func(k Key, v interface{}) { seen++ })
	if seen != 20 {
		t.Fatalf("range visited %d", seen)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1024, func(Key, interface{}) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{File: uint64(i % 100), Off: uint64(g)}
				if i%3 == 0 {
					c.Set(k, i, 4)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkSetEvict is the block cache's miss path: a full cache takes a
// block and drops its least recently used one.
func BenchmarkSetEvict(b *testing.B) {
	const blockSize = 4 << 10
	c := New(1<<20, nil)
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

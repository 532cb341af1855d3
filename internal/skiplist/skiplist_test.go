package skiplist

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSeekGE(t *testing.T) {
	s := New(bytes.Compare)
	for i := 0; i < 100; i += 2 {
		k := fmt.Sprintf("k%03d", i)
		s.Add([]byte(k), nil, nil)
	}
	it := s.NewIter()

	it.SeekGE([]byte("k010")) // exact
	if !it.Valid() || string(it.Key()) != "k010" {
		t.Fatalf("exact seek: %q", it.Key())
	}
	it.SeekGE([]byte("k011")) // between
	if !it.Valid() || string(it.Key()) != "k012" {
		t.Fatalf("between seek: %q", it.Key())
	}
	it.SeekGE([]byte("")) // before all
	if !it.Valid() || string(it.Key()) != "k000" {
		t.Fatalf("before-all seek: %q", it.Key())
	}
	it.SeekGE([]byte("z")) // past all
	if it.Valid() {
		t.Fatal("past-all seek should be invalid")
	}
}

func TestEmptyList(t *testing.T) {
	s := New(bytes.Compare)
	it := s.NewIter()
	it.First()
	if it.Valid() {
		t.Fatal("empty list iterator should be invalid")
	}
	it.SeekGE([]byte("x"))
	if it.Valid() {
		t.Fatal("empty list seek should be invalid")
	}
	it.Last()
	if it.Valid() {
		t.Fatal("Last on empty list should be invalid")
	}
	it.SeekLT([]byte("x"))
	if it.Valid() {
		t.Fatal("SeekLT on empty list should be invalid")
	}
	if s.Len() != 0 || s.ApproxSize() != 0 {
		t.Fatal("empty list should report zero size")
	}
}

func TestConcurrentReadDuringWrite(t *testing.T) {
	// One writer inserts while readers iterate; readers must never observe
	// out-of-order keys or crash. Run under -race to validate the memory
	// model usage.
	s := New(bytes.Compare)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				it := s.NewIter()
				var prev []byte
				for it.First(); it.Valid(); it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						panic("out of order during concurrent read")
					}
					prev = append(prev[:0], it.Key()...)
				}
			}
		}()
	}

	for i := 0; i < 20000; i++ {
		s.Add([]byte(fmt.Sprintf("key%08d", i*7919%1000000)), nil, []byte("v"))
	}
	close(stop)
	wg.Wait()
}

func TestApproxSizeGrows(t *testing.T) {
	s := New(bytes.Compare)
	before := s.ApproxSize()
	s.Add([]byte("key"), nil, make([]byte, 1000))
	if s.ApproxSize() <= before+1000 {
		t.Fatal("size should grow by at least the value size")
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(bytes.Compare)
	key := make([]byte, 16)
	for i := 0; i < b.N; i++ {
		binaryPut(key, uint64(i)*2654435761)
		s.Add(key, nil, nil)
	}
}

func BenchmarkSeekGE(b *testing.B) {
	s := New(bytes.Compare)
	key := make([]byte, 16)
	for i := 0; i < 100000; i++ {
		binaryPut(key, uint64(i)*7919)
		s.Add(key, nil, nil)
	}
	it := s.NewIter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binaryPut(key, uint64(i)*104729)
		it.SeekGE(key)
	}
}

// binaryPut writes v as big-endian into the first 8 bytes of dst.
func binaryPut(dst []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		dst[i] = byte(v)
		v >>= 8
	}
}

// TestConcurrentAddWithReaders runs readers over the list while writers
// insert; readers must always observe a sorted, prefix-consistent view.
func TestConcurrentAddWithReaders(t *testing.T) {
	s := New(bytes.Compare)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				it := s.NewIter()
				var prev []byte
				for it.First(); it.Valid(); it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						t.Errorf("reader saw order violation: %q then %q", prev, it.Key())
						return
					}
					prev = append(prev[:0], it.Key()...)
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				s.Add([]byte(fmt.Sprintf("key%08d", i*4+g)), nil, nil)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// BenchmarkAddParallel measures concurrent insert throughput (the
// memtable's write path under the group-commit pipeline).
func BenchmarkAddParallel(b *testing.B) {
	s := New(bytes.Compare)
	var ctr int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := atomic.AddInt64(&ctr, 1)
			s.Add([]byte(fmt.Sprintf("key%016d", i)), nil, nil)
		}
	})
}

package block

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func buildBlock(t *testing.T, keys []string, restartInterval int) []byte {
	t.Helper()
	b := NewBuilder(restartInterval)
	for _, k := range keys {
		b.Add([]byte(k), []byte("val:"+k))
	}
	return append([]byte(nil), b.Finish()...)
}

func sortedKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	for len(seen) < n {
		seen[fmt.Sprintf("key%08d", rng.Intn(1<<28))] = true
	}
	keys := make([]string, 0, n)
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestRoundtripVariousRestartIntervals(t *testing.T) {
	keys := sortedKeys(500, 1)
	for _, ri := range []int{1, 2, 16, 1000} {
		data := buildBlock(t, keys, ri)
		it, err := NewIter(data, bytes.Compare)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for it.First(); it.Valid(); it.Next() {
			if string(it.Key()) != keys[i] {
				t.Fatalf("ri=%d pos=%d: got %q want %q", ri, i, it.Key(), keys[i])
			}
			if string(it.Value()) != "val:"+keys[i] {
				t.Fatalf("ri=%d: value mismatch at %q", ri, it.Key())
			}
			i++
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		if i != len(keys) {
			t.Fatalf("ri=%d: iterated %d of %d", ri, i, len(keys))
		}
	}
}

func TestSeekGE(t *testing.T) {
	keys := sortedKeys(300, 2)
	data := buildBlock(t, keys, 4)
	it, err := NewIter(data, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 500; trial++ {
		target := fmt.Sprintf("key%08d", rand.Intn(1<<28))
		it.SeekGE([]byte(target))
		// Model answer: first key >= target.
		idx := sort.SearchStrings(keys, target)
		if idx == len(keys) {
			if it.Valid() {
				t.Fatalf("seek %q: expected invalid, got %q", target, it.Key())
			}
			continue
		}
		if !it.Valid() || string(it.Key()) != keys[idx] {
			t.Fatalf("seek %q: got %q want %q", target, it.Key(), keys[idx])
		}
	}
}

func TestSeekExactEveryKey(t *testing.T) {
	keys := sortedKeys(100, 3)
	data := buildBlock(t, keys, 7)
	it, _ := NewIter(data, bytes.Compare)
	for _, k := range keys {
		it.SeekGE([]byte(k))
		if !it.Valid() || string(it.Key()) != k {
			t.Fatalf("seek exact %q failed: %q", k, it.Key())
		}
	}
}

func TestEmptyValuesAndSharedPrefixes(t *testing.T) {
	b := NewBuilder(16)
	keys := []string{"prefix", "prefix0", "prefix00", "prefix01", "prefixa"}
	for _, k := range keys {
		b.Add([]byte(k), nil)
	}
	it, err := NewIter(b.Finish(), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if string(it.Key()) != keys[i] {
			t.Fatalf("pos %d: %q", i, it.Key())
		}
		if len(it.Value()) != 0 {
			t.Fatal("expected empty value")
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("iterated %d", i)
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	if _, err := NewIter([]byte{1, 2}, bytes.Compare); err == nil {
		t.Fatal("tiny block should fail")
	}
	// Restart count pointing past the block.
	bad := []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}
	if _, err := NewIter(bad, bytes.Compare); err == nil {
		t.Fatal("bogus restart count should fail")
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(16)
	b.Add([]byte("a"), []byte("1"))
	b.Finish()
	b.Reset()
	b.Add([]byte("b"), []byte("2"))
	it, err := NewIter(b.Finish(), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	it.First()
	if !it.Valid() || string(it.Key()) != "b" {
		t.Fatalf("after reset: %q", it.Key())
	}
	it.Next()
	if it.Valid() {
		t.Fatal("reset block should have one entry")
	}
}

func TestEstimatedSizeMonotonic(t *testing.T) {
	b := NewBuilder(16)
	prev := b.EstimatedSize()
	for i := 0; i < 100; i++ {
		b.Add([]byte(fmt.Sprintf("key%04d", i)), []byte("value"))
		if sz := b.EstimatedSize(); sz <= prev {
			t.Fatal("estimated size must grow")
		} else {
			prev = sz
		}
	}
}

// FuzzBlockIter drives every positioning call over arbitrary bytes: a block
// reaches Init behind a checksum, but a checksum only proves the bytes are
// the ones written. Nothing may panic or loop, and a cursor that stops on
// bad bytes must report ErrCorrupt.
func FuzzBlockIter(f *testing.F) {
	b := NewBuilder(4)
	for i := 0; i < 20; i++ {
		b.Add([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	f.Add(append([]byte(nil), b.Finish()...), []byte("key0010"))
	f.Add(NewBuilder(1).Finish(), []byte("a"))
	f.Add([]byte{}, []byte{})
	// One entry whose unshared and value lengths sum past 2^64.
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 2, 'a', 'b', 0, 0, 0, 0, 1, 0, 0, 0}, []byte("a"))
	f.Fuzz(func(t *testing.T, data, target []byte) {
		var it Iter
		if err := it.Init(data, bytes.Compare); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Init: %v", err)
			}
			return
		}
		// A valid block holds fewer entries than bytes; a cursor still
		// moving after that many steps is going in circles.
		steps := 0
		step := func() {
			if steps++; steps > 4*len(data)+8 {
				t.Fatal("cursor does not terminate")
			}
			_, _ = it.Key(), it.Value()
		}
		for it.First(); it.Valid(); it.Next() {
			step()
		}
		for it.Last(); it.Valid(); it.Prev() {
			step()
		}
		for it.SeekGE(target); it.Valid(); it.Next() {
			step()
		}
		for it.SeekLT(target); it.Valid(); it.Prev() {
			step()
		}
		if err := it.Error(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Error: %v", err)
		}
	})
}

// BenchmarkIterNext walks a 4 KiB block of 24-byte keys and 128-byte values
// (the benchmark store's shape: the value length is the one two-byte varint
// of an entry header).
func BenchmarkIterNext(b *testing.B) {
	bl := NewBuilder(16)
	val := make([]byte, 128)
	for i := 0; bl.EstimatedSize() < 4<<10; i++ {
		bl.Add([]byte(fmt.Sprintf("%016d\x01\x00\x00\x00\x00\x00\x00\x00", i)), val)
	}
	it, err := NewIter(bl.Finish(), bytes.Compare)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if it.Next(); !it.Valid() {
			it.First()
		}
	}
}

package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// model is the sorted reference a list is compared with.
type model struct {
	keys []string // sorted
	vals map[string][]byte
}

func newModel(vals map[string][]byte) *model {
	m := &model{vals: vals}
	for k := range vals {
		m.keys = append(m.keys, k)
	}
	sort.Strings(m.keys)
	return m
}

// ge / lt are the positions SeekGE / SeekLT must land on (len(keys) / -1:
// nowhere).
func (m *model) ge(target string) int { return sort.SearchStrings(m.keys, target) }
func (m *model) lt(target string) int { return sort.SearchStrings(m.keys, target) - 1 }

// at checks that it stands on position i of the model (or nowhere).
func (m *model) at(t *testing.T, it *Iter, i int, what string) {
	t.Helper()
	if i < 0 || i >= len(m.keys) {
		if it.Valid() {
			t.Fatalf("%s: at %q, want nowhere", what, it.Key())
		}
		return
	}
	if !it.Valid() {
		t.Fatalf("%s: nowhere, want %q", what, m.keys[i])
	}
	if string(it.Key()) != m.keys[i] {
		t.Fatalf("%s: at %q, want %q", what, it.Key(), m.keys[i])
	}
	if !bytes.Equal(it.Value(), m.vals[m.keys[i]]) {
		t.Fatalf("%s: value of %q differs from the model's (%d bytes against %d)",
			what, m.keys[i], len(it.Value()), len(m.vals[m.keys[i]]))
	}
}

// check walks the whole list both ways and seeks around every probe.
func (m *model) check(t *testing.T, s *Skiplist, probes []string) {
	t.Helper()
	if s.Len() != len(m.keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(m.keys))
	}
	it := s.NewIter()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		m.at(t, it, i, "forward")
		i++
	}
	if i != len(m.keys) {
		t.Fatalf("forward visited %d of %d", i, len(m.keys))
	}
	i = len(m.keys) - 1
	for it.Last(); it.Valid(); it.Prev() {
		m.at(t, it, i, "backward")
		i--
	}
	if i != -1 {
		t.Fatalf("backward stopped at %d", i)
	}
	for _, p := range probes {
		for _, target := range []string{p, p + "\x00", p[:len(p)-1]} {
			ge, lt := m.ge(target), m.lt(target)
			it.SeekGE([]byte(target))
			m.at(t, it, ge, fmt.Sprintf("SeekGE(%q)", target))
			if it.Valid() {
				it.Next()
				m.at(t, it, ge+1, fmt.Sprintf("SeekGE(%q)+Next", target))
			}
			it.SeekLT([]byte(target))
			m.at(t, it, lt, fmt.Sprintf("SeekLT(%q)", target))
			if it.Valid() {
				it.Prev()
				m.at(t, it, lt-1, fmt.Sprintf("SeekLT(%q)+Prev", target))
			}
			k, v, ok := s.FindGE([]byte(target))
			if ok != (ge < len(m.keys)) || ok && (string(k) != m.keys[ge] || !bytes.Equal(v, m.vals[m.keys[ge]])) {
				t.Fatalf("FindGE(%q) = %q, %v", target, k, ok)
			}
		}
	}
}

func randValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v)
	return v
}

// TestAgainstSortedModel fills a list over many chunks, one entry of them
// larger than any chunk, and compares it with a sorted model: whole walks in
// both directions, and seeks at and beside the entries on either side of
// every chunk boundary, where a link crosses from one chunk to another.
func TestAgainstSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s := New(bytes.Compare)
	vals := map[string][]byte{}
	var order, boundary []string
	const huge = maxChunk + 17
	for len(vals) < 12000 {
		k := fmt.Sprintf("key%07d", rng.Intn(1<<22))
		if vals[k] != nil {
			continue
		}
		n := 1 + rng.Intn(300)
		if len(vals) == 7000 {
			n = huge
		}
		v := randValue(rng, n)
		chunks, bytes := s.arena.n, s.arena.bytes
		// The key travels as key and suffix, as the memtable passes them.
		s.Add([]byte(k[:5]), []byte(k[5:]), v)
		vals[k] = v
		if s.arena.n != chunks && len(order) > 0 {
			// k opened a chunk: it and the entry before it in arrival
			// order sit at the two ends of a chunk.
			boundary = append(boundary, order[len(order)-1], k)
		}
		if n == huge {
			// Larger than any chunk: one of its own, of its size, and full.
			if grew := s.arena.bytes - bytes; s.arena.n != chunks+1 || grew < huge || grew > huge+100 || s.arena.tail.Load()>>32 != 0 {
				t.Fatalf("the huge entry added %d chunks of %d bytes, with %d free", s.arena.n-chunks, grew, s.arena.tail.Load()>>32)
			}
		}
		order = append(order, k)
	}
	if s.arena.n < 12 || len(boundary) < 2*11 {
		t.Fatalf("%d chunks, %d boundary entries: the fill was meant to span many", s.arena.n, len(boundary))
	}
	// A chunk is at most a quarter of what the arena held before it, so at
	// most a fifth of the arena is a chunk's unused end.
	need := 0
	for k, v := range vals {
		need += nodeHeader + linkSize*maxHeight + len(k) + len(v) + 4
	}
	if s.arena.bytes > need*5/4+4*minChunk {
		t.Fatalf("the arena holds %d bytes for entries that need at most %d", s.arena.bytes, need)
	}
	// Charged by the entry, whatever the arena spent.
	var charge int64
	for k, v := range vals {
		charge += int64(len(k) + len(v) + entryCharge)
	}
	if s.ApproxSize() != charge {
		t.Fatalf("ApproxSize = %d, want %d", s.ApproxSize(), charge)
	}
	probes := append(boundary, order[0], order[7000], order[len(order)-1])
	for i := 0; i < 500; i++ {
		probes = append(probes, fmt.Sprintf("key%07d", rng.Intn(1<<22)))
	}
	newModel(vals).check(t, s, probes)
}

// TestConcurrentInsertersAgainstModel has eight goroutines insert disjoint
// keys at once, with values sized so that chunks fill and are added while
// others allocate from them, one goroutine adding entries larger than a
// chunk; under -race it is also the check that arena bytes are published
// before the link that leads to them.
func TestConcurrentInsertersAgainstModel(t *testing.T) {
	const inserters, per = 8, 1500
	s := New(bytes.Compare)
	sets := make([]map[string][]byte, inserters)
	var wg sync.WaitGroup
	for g := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			mine := map[string][]byte{}
			for i := 0; i < per; i++ {
				k := fmt.Sprintf("key%07d", rng.Intn(1<<20)*inserters+g)
				if mine[k] != nil {
					continue
				}
				n := 1 + rng.Intn(400)
				if g == 0 && i%500 == 250 {
					n = maxChunk + rng.Intn(1000)
				}
				v := randValue(rng, n)
				s.Add([]byte(k), nil, v)
				mine[k] = v
			}
			sets[g] = mine
		}()
	}
	wg.Wait()
	vals := map[string][]byte{}
	var probes []string
	for _, mine := range sets {
		for k, v := range mine {
			vals[k] = v
			if len(probes) < 2000 {
				probes = append(probes, k)
			}
		}
	}
	newModel(vals).check(t, s, probes)
}

// TestAllocLeavesPadding: the address of an empty key or value is the end
// of its node, which must still be inside the chunk — a pointer just past a
// chunk is one the collector may reject — so every allocation, of whatever
// size and wherever in a chunk it falls, is followed by a byte of its chunk.
func TestAllocLeavesPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := new(arena)
	for i := 0; i < 40000; i++ {
		n := 1 + rng.Intn(200)
		if i%8000 == 7999 {
			n = 70<<10 + rng.Intn(8) // larger than the chunk it would have got
		}
		bytes, chunks := a.bytes, a.n
		l := a.alloc(n)
		// The chunk's end, if this allocation opened it: the bytes the
		// arena grew by.
		if off := int(l & (maxChunk - 1)); off%4 != 0 || off < chunkStart || a.n > chunks && off+n >= a.bytes-bytes {
			t.Fatalf("alloc(%d) = chunk %d offset %d of %d bytes", n, l>>chunkBits, off, a.bytes-bytes)
		}
		if free := int(a.tail.Load() >> 32); free < 0 || a.n == chunks && uint32(a.tail.Load()) != l+uint32(n+4)&^3 {
			t.Fatalf("alloc(%d) = %#x left the tail at %#x", n, l, a.tail.Load())
		}
	}
	s := New(bytes.Compare)
	s.Add(nil, nil, nil)
	s.Add([]byte("k"), nil, nil)
	it := s.NewIter()
	it.First()
	if !it.Valid() || len(it.Key()) != 0 || len(it.Value()) != 0 {
		t.Fatalf("first entry: %q", it.Key())
	}
	it.Next()
	if !it.Valid() || string(it.Key()) != "k" || len(it.Value()) != 0 {
		t.Fatalf("second entry: %q", it.Key())
	}
}

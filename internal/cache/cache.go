// Package cache provides the block cache: a sharded LRU of decoded sstable
// data-block payloads with byte-based capacity. The paper's evaluation
// repeatedly turns on cache effects (Fig 5.1d cached datasets, Fig 5.2b low
// memory), so capacity must be byte-exact. Charges are the caller's to
// choose; the block cache charges the decompressed payload size (tables
// store blocks snappy-compressed, and hits must skip the codec), so capacity
// bounds resident memory, not on-storage bytes.
//
// A payload lives in a reference-counted Buf (buf.go). The cache holds one
// reference per entry and hands one to every Acquire; eviction, DeleteFile
// and replacement drop only the cache's own, so a reader keeps its block for
// as long as it holds it and the memory is reused once nobody does.
package cache

import "sync"

const numShards = 16

// Key identifies a cache entry: a file number plus the offset of a block
// within it.
type Key struct {
	File uint64
	Off  uint64
}

// Cache is a fixed-capacity sharded LRU. Payloads are immutable while
// referenced, so a hit hands out the cached buffer itself.
type Cache struct {
	shards [numShards]shard
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	// lru is the sentinel of the circular recency list: lru.next is the
	// most recently used entry, lru.prev the eviction victim.
	lru   entry
	items map[Key]*entry
	// free chains (through next) the entries evictions left behind, so a
	// full cache inserts without allocating.
	free   *entry
	hits   int64
	misses int64
}

// entry is a cached value and its own node in the shard's recency list.
type entry struct {
	prev, next *entry
	key        Key
	value      *Buf
	charge     int64
}

// New returns a cache with the given total capacity in bytes. The trailing
// parameter carries no behaviour: an eviction callback used to go there and
// bench/ (frozen) still passes a literal nil; product callers pass nothing.
func New(capacity int64, _ ...func()) *Cache {
	c := &Cache{}
	per := capacity / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = per
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		s.items = make(map[Key]*entry)
	}
	return c
}

func (c *Cache) shard(k Key) *shard {
	h := k.File*0x9e3779b97f4a7c15 + k.Off*0xbf58476d1ce4e5b9
	return &c.shards[h%numShards]
}

func (s *shard) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// remove takes e out of the shard and onto the free list, dropping the
// cache's reference to its payload.
func (s *shard) remove(e *entry) {
	s.unlink(e)
	delete(s.items, e.key)
	s.used -= e.charge
	e.value.Release()
	*e = entry{next: s.free}
	s.free = e
}

// Acquire returns the payload cached under k with a reference the caller
// must Release, or nil when there is none.
func (c *Cache) Acquire(k Key) *Buf {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.unlink(e)
		s.pushFront(e)
		s.hits++
		e.value.refs.Add(1)
		return e.value
	}
	s.misses++
	return nil
}

// Insert caches b under k with the given charge in bytes, evicting LRU
// entries as needed. The cache takes a reference of its own; the caller
// keeps the one it has.
func (c *Cache) Insert(k Key, b *Buf, charge int64) {
	b.refs.Add(1)
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.used += charge - e.charge
		e.value.Release()
		e.value, e.charge = b, charge
		s.unlink(e)
		s.pushFront(e)
	} else {
		e := s.free
		if e != nil {
			s.free = e.next
		} else {
			e = &entry{}
		}
		e.key, e.value, e.charge = k, b, charge
		s.pushFront(e)
		s.items[k] = e
		s.used += charge
	}
	for s.used > s.capacity && s.lru.prev != &s.lru {
		s.remove(s.lru.prev)
	}
}

// Get and Set are Acquire and Insert over bare slices, for bench/ (frozen),
// which times the cache with them. A Get leaves its reference to the
// garbage collector and a Set's slice stays its caller's, so neither payload
// is ever recycled.
func (c *Cache) Get(k Key) ([]byte, bool) {
	b := c.Acquire(k)
	return b.Bytes(), b != nil
}

// Set inserts value under k with the given charge in bytes.
func (c *Cache) Set(k Key, value []byte, charge int64) {
	b := wrap(value)
	c.Insert(k, b, charge)
	b.Release()
}

// DeleteFile removes every entry whose Key.File matches fn.
func (c *Cache) DeleteFile(fn uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.items {
			if k.File == fn {
				s.remove(e)
			}
		}
		s.mu.Unlock()
	}
}

// Stats reports aggregate cache behaviour.
type Stats struct {
	Hits, Misses int64
	UsedBytes    int64
	Entries      int
}

// Stats returns a snapshot across shards.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.UsedBytes += s.used
		st.Entries += len(s.items)
		s.mu.Unlock()
	}
	return st
}

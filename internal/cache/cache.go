// Package cache provides the block cache: a sharded LRU of decoded sstable
// data-block payloads with byte-based capacity. The paper's evaluation
// repeatedly turns on cache effects (Fig 5.1d cached datasets, Fig 5.2b low
// memory), so capacity must be byte-exact. Charges are the caller's to
// choose; the block cache charges the decompressed payload size (tables
// store blocks snappy-compressed, and hits must skip the codec), so capacity
// bounds resident memory, not on-storage bytes.
package cache

import "sync"

const numShards = 16

// Key identifies a cache entry: a file number plus the offset of a block
// within it.
type Key struct {
	File uint64
	Off  uint64
}

// Cache is a fixed-capacity sharded LRU. Payloads are immutable once set, so
// a hit hands out the cached slice itself and an eviction owes nobody a
// callback.
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
	value      []byte
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

// remove takes e out of the shard and onto the free list.
func (s *shard) remove(e *entry) {
	s.unlink(e)
	delete(s.items, e.key)
	s.used -= e.charge
	*e = entry{next: s.free}
	s.free = e
}

// Get returns the cached payload for k, if present.
func (c *Cache) Get(k Key) ([]byte, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.unlink(e)
		s.pushFront(e)
		s.hits++
		return e.value, true
	}
	s.misses++
	return nil, false
}

// Set inserts value under k with the given charge in bytes, evicting LRU
// entries as needed.
func (c *Cache) Set(k Key, value []byte, charge int64) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.used += charge - e.charge
		e.value, e.charge = value, charge
		s.unlink(e)
		s.pushFront(e)
	} else {
		e := s.free
		if e != nil {
			s.free = e.next
		} else {
			e = &entry{}
		}
		e.key, e.value, e.charge = k, value, charge
		s.pushFront(e)
		s.items[k] = e
		s.used += charge
	}
	for s.used > s.capacity && s.lru.prev != &s.lru {
		s.remove(s.lru.prev)
	}
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

// Package cache provides a sharded LRU cache with byte-based capacity. It
// backs the block cache (decoded sstable data blocks). The paper's
// evaluation repeatedly turns on cache effects (Fig 5.1d cached datasets,
// Fig 5.2b low memory), so capacity must be byte-exact. Charges are the
// caller's to choose; the block cache charges the decompressed payload size
// (sstable format v2 stores blocks snappy-compressed, and hits must skip the
// codec), so capacity bounds resident memory, not on-storage bytes.
package cache

import "sync"

const numShards = 16

// Key identifies a cache entry: a file number plus the offset of a block
// within it.
type Key struct {
	File uint64
	Off  uint64
}

// Cache is a fixed-capacity sharded LRU.
type Cache struct {
	shards  [numShards]shard
	onEvict func(Key, interface{})
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
	value      interface{}
	charge     int64
}

// evicted is what the eviction callback is owed once the shard lock is
// released; the entry itself is reused at once.
type evicted struct {
	key   Key
	value interface{}
}

// New returns a cache with the given total capacity in bytes. onEvict, if
// non-nil, is called (without locks held by the caller's shard) for every
// evicted or replaced entry.
func New(capacity int64, onEvict func(Key, interface{})) *Cache {
	c := &Cache{onEvict: onEvict}
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

// remove takes e out of the shard and onto the free list, returning what
// the eviction callback is owed for it.
func (s *shard) remove(e *entry) evicted {
	ev := evicted{e.key, e.value}
	s.unlink(e)
	delete(s.items, e.key)
	s.used -= e.charge
	*e = entry{next: s.free}
	s.free = e
	return ev
}

// notify runs the eviction callback for evs, outside the shard lock.
func (c *Cache) notify(evs []evicted) {
	if c.onEvict != nil {
		for _, ev := range evs {
			c.onEvict(ev.key, ev.value)
		}
	}
}

// Get returns the cached value for k, if present.
func (c *Cache) Get(k Key) (interface{}, bool) {
	return c.GetHold(k, nil)
}

// GetHold is Get with a callback invoked on the value while the shard lock
// is held. Reference-counted values use it to acquire a reference
// atomically with the lookup, so a concurrent eviction cannot release the
// last reference in between.
func (c *Cache) GetHold(k Key, hold func(v interface{})) (interface{}, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.unlink(e)
		s.pushFront(e)
		s.hits++
		if hold != nil {
			hold(e.value)
		}
		return e.value, true
	}
	s.misses++
	return nil, false
}

// Set inserts value under k with the given charge in bytes, evicting LRU
// entries as needed.
func (c *Cache) Set(k Key, value interface{}, charge int64) {
	s := c.shard(k)
	// An insert evicts about as many entries as it adds; the array keeps
	// the usual handful off the heap.
	var buf [4]evicted
	evs := buf[:0]
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		evs = append(evs, evicted{e.key, e.value})
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
		evs = append(evs, s.remove(s.lru.prev))
	}
	s.mu.Unlock()
	c.notify(evs)
}

// Delete removes k if present, invoking the eviction callback.
func (c *Cache) Delete(k Key) {
	s := c.shard(k)
	var buf [1]evicted
	evs := buf[:0]
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		evs = append(evs, s.remove(e))
	}
	s.mu.Unlock()
	c.notify(evs)
}

// DeleteFile removes every entry whose Key.File matches fn.
func (c *Cache) DeleteFile(fn uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		var evs []evicted
		s.mu.Lock()
		for k, e := range s.items {
			if k.File == fn {
				evs = append(evs, s.remove(e))
			}
		}
		s.mu.Unlock()
		c.notify(evs)
	}
}

// Range calls fn for every cached entry. Entries may be concurrently
// evicted; Range holds each shard's lock while visiting it.
func (c *Cache) Range(fn func(k Key, v interface{})) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.items {
			fn(k, e.value)
		}
		s.mu.Unlock()
	}
}

// Clear evicts every entry, invoking the eviction callback for each.
func (c *Cache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		var evs []evicted
		s.mu.Lock()
		for _, e := range s.items {
			evs = append(evs, s.remove(e))
		}
		s.mu.Unlock()
		c.notify(evs)
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

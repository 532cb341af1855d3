// Package cache provides the block cache: a sharded S3-FIFO cache of decoded
// sstable data-block payloads with byte-based capacity. The paper's
// evaluation repeatedly turns on cache effects (Fig 5.1d cached datasets,
// Fig 5.2b low memory), so capacity must be byte-exact. Charges are the
// caller's to choose; the block cache charges the decompressed payload size
// (tables store blocks snappy-compressed, and hits must skip the codec), so
// capacity bounds resident memory, not on-storage bytes.
//
// The policy is S3-FIFO (Yang et al., "FIFO queues are all you need for cache
// eviction", SOSP 2023). A block starts in a small FIFO; one that is read
// again before it reaches the small FIFO's tail moves to the main FIFO, and
// one that is not leaves, its key remembered by a ghost so that a block read
// again soon after goes straight to main. Most blocks of a store larger than
// its cache are read once — the zipf tail, the bottom level under a scan —
// and under S3-FIFO they pass through the small FIFO without pushing the
// blocks that are read over and over out of main, as an LRU lets them.
//
// A payload lives in a reference-counted Buf (buf.go). The cache holds one
// reference per entry and hands one to every Acquire; a move between queues
// keeps it, and eviction, DeleteFiles and replacement drop only the cache's
// own, so a reader keeps its block for as long as it holds it and the memory
// is reused once nobody does.
package cache

import "sync"

const numShards = 16

// S3-FIFO's defaults, kept as constants (with the ghost's size, the shard's
// entry count): the paper finds them good across its traces, and replaying
// the benchmark's recorded block reads (EXPERIMENTS.md) read-zipf misses
// 16-20 % less than under the LRU anywhere between a small share of 5 and
// 20 %, a cap of 1 or 3 and a ghost of half to twice the entry count. The
// defaults sit inside that range, and nothing the store measures would
// choose a better point in it.
const (
	// smallShare is the divisor of a shard's capacity that gives the small
	// FIFO's share: a tenth.
	smallShare = 10
	// maxFreq caps an entry's read count at two bits' worth: a block read a
	// thousand times survives three passes of main's tail unread, not a
	// thousand.
	maxFreq = 3
)

// Key identifies a cache entry: a file number plus the offset of a block
// within it.
type Key struct {
	File uint64
	Off  uint64
}

// hash mixes k into the word that picks its shard (low bits) and that the
// ghost remembers it by (high bits).
func (k Key) hash() uint64 {
	return k.File*0x9e3779b97f4a7c15 + k.Off*0xbf58476d1ce4e5b9
}

// Cache is a fixed-capacity sharded S3-FIFO cache. Payloads are immutable
// while referenced, so a hit hands out the cached buffer itself.
type Cache struct {
	shards [numShards]shard
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	// small is where every block starts; main holds the blocks read again
	// while in small, or found in the ghost when inserted.
	small, main queue
	ghost       ghost
	items       map[Key]*entry
	// free chains (through next) the entries evictions left behind, so a
	// full cache inserts without allocating.
	free *entry
	// hits and misses count every Acquire; evictedUnread the blocks that
	// left small unread, readmitted those the ghost sent to main.
	hits, misses, evictedUnread, readmitted int64
}

// queue is a FIFO of entries: a circular list through its sentinel, head.next
// the newest entry and head.prev the oldest.
type queue struct {
	head  entry
	bytes int64
}

// entry is a cached value and its own node in its queue.
type entry struct {
	prev, next *entry
	q          *queue // the queue e is in; nil while it is in none
	key        Key
	value      *Buf
	charge     int64
	// freq counts reads since e was inserted or since main's tail last
	// passed over it, up to maxFreq.
	freq uint8
}

func (q *queue) init() { q.head.prev, q.head.next = &q.head, &q.head }

func (q *queue) push(e *entry) {
	e.q = q
	e.prev, e.next = &q.head, q.head.next
	e.prev.next, e.next.prev = e, e
	q.bytes += e.charge
}

func (q *queue) remove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.q = nil
	q.bytes -= e.charge
}

// oldest returns the entry at the queue's tail, nil when it is empty.
func (q *queue) oldest() *entry {
	if q.head.prev == &q.head {
		return nil
	}
	return q.head.prev
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
		s.small.init()
		s.main.init()
		s.items = make(map[Key]*entry)
	}
	return c
}

func (c *Cache) shard(k Key) *shard {
	return &c.shards[k.hash()%numShards]
}

// drop takes e, which is in no queue, out of the shard and onto the free
// list, dropping the cache's reference to its payload.
func (s *shard) drop(e *entry) {
	delete(s.items, e.key)
	s.used -= e.charge
	e.value.Release()
	*e = entry{next: s.free}
	s.free = e
}

// evict frees room until the shard is within its capacity or no queued entry
// is left. The small FIFO gives up its tail while it holds its share or more
// (or main is empty): a block read there moves to main, one that was
// not leaves and its key goes to the ghost. Otherwise main gives up its tail:
// a block read since it last came round is passed over, one read fewer, and
// one that was not leaves.
func (s *shard) evict() {
	for s.used > s.capacity {
		e := s.small.oldest()
		if e != nil && (s.small.bytes >= s.capacity/smallShare || s.main.oldest() == nil) {
			s.small.remove(e)
			if e.freq > 0 {
				s.main.push(e)
				continue
			}
			s.ghost.add(e.key.hash(), len(s.items))
			s.evictedUnread++
		} else if e = s.main.oldest(); e != nil {
			s.main.remove(e)
			if e.freq > 0 {
				e.freq--
				s.main.push(e)
				continue
			}
		} else {
			return
		}
		s.drop(e)
	}
}

// Acquire returns the payload cached under k with a reference the caller
// must Release, or nil when there is none. A hit moves nothing: it counts a
// read on the entry, which eviction reads.
func (c *Cache) Acquire(k Key) *Buf {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		e.freq = min(e.freq+1, maxFreq)
		s.hits++
		e.value.refs.Add(1)
		return e.value
	}
	s.misses++
	return nil
}

// Insert caches b under k with the given charge in bytes, evicting other
// entries as needed but never b: a block larger than a whole shard is not
// cached at all. The cache takes a reference of its own; the caller keeps
// the one it has.
func (c *Cache) Insert(k Key, b *Buf, charge int64) {
	s := c.shard(k)
	if charge > s.capacity {
		return
	}
	b.refs.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	q := &s.small
	e, ok := s.items[k]
	if ok {
		// Two reads missed the block at once: the later payload replaces
		// the earlier one, and the entry counts the second read.
		q = e.q
		q.remove(e)
		s.used -= e.charge
		e.value.Release()
		e.freq = min(e.freq+1, maxFreq)
	} else {
		if s.ghost.readmit(k.hash()) {
			q = &s.main
			s.readmitted++
		}
		if e = s.free; e != nil {
			s.free = e.next
		} else {
			e = &entry{}
		}
		e.key = k
		s.items[k] = e
	}
	e.value, e.charge = b, charge
	s.used += charge
	// e is in no queue while the others make room, so it cannot be taken:
	// under plain S3-FIFO a block larger than the small FIFO's share is the
	// victim of its own insert once the read blocks ahead of it have moved
	// to main.
	s.evict()
	q.push(e)
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

// DeleteFiles removes every entry whose Key.File is one of fns, in one
// pass over each shard however many files go.
func (c *Cache) DeleteFiles(fns ...uint64) {
	doomed := make(map[uint64]struct{}, len(fns))
	for _, fn := range fns {
		doomed[fn] = struct{}{}
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.items {
			if _, ok := doomed[k.File]; ok {
				e.q.remove(e)
				s.drop(e)
			}
		}
		s.mu.Unlock()
	}
}

// Stats reports aggregate cache behaviour. Every reader's lookups count:
// Gets', iterators' and compactions'.
type Stats struct {
	Hits      int64 `metric:"pebblesdb_block_cache_hits_total" help:"Block-cache lookups that found the block, by every reader (Gets, iterators, compactions)."`
	Misses    int64 `metric:"pebblesdb_block_cache_misses_total" help:"Block-cache lookups that did not find the block, by every reader."`
	UsedBytes int64 `metric:"pebblesdb_block_cache_bytes" help:"Decoded payload bytes the block cache holds."`
	Entries   int   `metric:"pebblesdb_block_cache_entries" help:"Blocks the block cache holds."`
	// EvictedUnread counts blocks that left the small FIFO without a second
	// read; Readmitted counts blocks the ghost recognised on insert and
	// sent straight to the main FIFO.
	EvictedUnread int64 `metric:"pebblesdb_block_cache_evicted_unread_total" help:"Blocks evicted from the small FIFO without being read again."`
	Readmitted    int64 `metric:"pebblesdb_block_cache_readmitted_total" help:"Blocks the ghost recognised on insert and admitted straight to the main FIFO."`
}

// HitRatio is Hits over all lookups, 0 before the first.
func (st Stats) HitRatio() float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
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
		st.EvictedUnread += s.evictedUnread
		st.Readmitted += s.readmitted
		s.mu.Unlock()
	}
	return st
}

// Held walks the cache and counts the entries whose payload someone besides
// the cache holds a reference to. With no reader open it is 0; anything else
// is a reference some holder never released. For tests and tools: it takes
// every shard's lock for a walk of its entries.
func (c *Cache) Held() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.items {
			if e.value.refs.Load() > 1 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

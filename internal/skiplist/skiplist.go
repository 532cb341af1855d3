// Package skiplist provides the in-memory sorted structure underlying the
// memtable (§2.2: "the put() operation writes the key-value pair ... to an
// in-memory skip list"). The list supports any number of concurrent
// writers and lock-free readers: links are spliced with compare-and-swap,
// nodes are immutable after linking, and nothing is ever unlinked. This is
// what lets the engine's group-commit pipeline apply concurrent writers'
// batches to the memtable in parallel.
//
// Nodes, their towers, keys and values live in one arena of pointer-free
// byte chunks (arena.go) and refer to each other by 32-bit links, so an
// insert is one bump of the arena and the collector sees a whole list as a
// handful of []byte. A node is laid out as
//
//	keyLen uint32 | valueLen uint32 | height uint32 | tower [height]uint32 | key | value
//
// padded to the next multiple of four bytes (at least one byte: see
// arena.alloc). The tower words are the only part of a node written after
// it is linked, and they are written and read atomically. A search holds a
// node by its address and reads the header, the tower and the key through
// unsafe casts of the chunk bytes — the one use of unsafe in the store — so
// a step costs what it cost when nodes were Go structs: one load of the
// chunk's address for the link it follows, no bounds checks.
package skiplist

import (
	"math"
	"sync/atomic"
	"unsafe"
)

const (
	maxHeight = 12

	// Node header: key length, value length, tower height.
	nodeHeader = 12
	linkSize   = 4

	// entryCharge is what ApproxSize charges an entry beyond its key and
	// value. It is the accounting the memtable's flush threshold was tuned
	// against (a pointer node, its tower and the allocator's slack), kept so
	// that flush boundaries do not move with the representation; the arena
	// spends less, at most nodeHeader + maxHeight*linkSize + 4 of padding.
	entryCharge = 64
)

// Skiplist is an ordered map from byte-slice keys to byte-slice values.
// Keys must be unique; the memtable guarantees this by suffixing every key
// with a fresh sequence number.
type Skiplist struct {
	cmp   func(a, b []byte) int
	arena arena
	// head has the layout of a node of full height with no key, so that a
	// search can start from its address; it is the one node outside the
	// arena, which lets an empty list own no chunk.
	head struct {
		header [nodeHeader / linkSize]uint32
		tower  [maxHeight]atomic.Uint32
	}
	height atomic.Int32
	size   atomic.Int64
	count  atomic.Int64
	rnd    atomic.Uint64
}

// New returns an empty skiplist ordered by cmp. It owns no chunk until the
// first Add.
func New(cmp func(a, b []byte) int) *Skiplist {
	s := &Skiplist{cmp: cmp}
	s.height.Store(1)
	return s
}

// randomHeight derives per-insert random state from a wait-free counter
// pushed through a splitmix64 finalizer, so concurrent inserts never
// contend on a shared PRNG; p(level up) = 1/4 as in LevelDB.
func (s *Skiplist) randomHeight() int {
	x := s.rnd.Add(1) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	h := 1
	for h < maxHeight && x&3 == 0 {
		h++
		x >>= 2
	}
	return h
}

// node is the address of a node's header: in a chunk, or the list's head.
// It keeps the chunk alive like any pointer into it.
type node = unsafe.Pointer

// header returns the node's key length, value length and height.
func header(n node) *[nodeHeader / linkSize]uint32 {
	return (*[nodeHeader / linkSize]uint32)(n)
}

// link returns the level-th word of the node's tower. level must be below
// the node's height.
func link(n node, level int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Add(n, nodeHeader+linkSize*level))
}

func key(n node) []byte {
	h := header(n)
	return unsafe.Slice((*byte)(unsafe.Add(n, nodeHeader+linkSize*h[2])), h[0])
}

func value(n node) []byte {
	h := header(n)
	return unsafe.Slice((*byte)(unsafe.Add(n, nodeHeader+linkSize*h[2]+h[0])), h[1])
}

// follow returns the node after n at level, or nil at the end of the list.
func (s *Skiplist) follow(n node, level int) node {
	if l := link(n, level).Load(); l != 0 {
		return s.arena.at(l)
	}
	return nil
}

// findGE returns the first node with key >= target, or nil.
func (s *Skiplist) findGE(target []byte) node {
	x := node(&s.head)
	level := int(s.height.Load()) - 1
	for {
		next := s.follow(x, level)
		if next != nil && s.cmp(key(next), target) < 0 {
			x = next
			continue
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// findLT returns the rightmost node with key < target, or nil when every
// node's key is >= target.
func (s *Skiplist) findLT(target []byte) node {
	x := node(&s.head)
	level := int(s.height.Load()) - 1
	for {
		next := s.follow(x, level)
		if next != nil && s.cmp(key(next), target) < 0 {
			x = next
			continue
		}
		if level == 0 {
			return s.notHead(x)
		}
		level--
	}
}

// findLast returns the last node, or nil when the list is empty.
func (s *Skiplist) findLast() node {
	x := node(&s.head)
	level := int(s.height.Load()) - 1
	for {
		if next := s.follow(x, level); next != nil {
			x = next
			continue
		}
		if level == 0 {
			return s.notHead(x)
		}
		level--
	}
}

func (s *Skiplist) notHead(n node) node {
	if n == node(&s.head) {
		return nil
	}
	return n
}

// findSplice fills prev/next with the splice points for key at every
// level: prev[i].key < key <= next[i].key, where next[i] is the link prev[i]
// held (0 at the end of the list). It scans from maxHeight-1 so a concurrent
// height increase cannot be missed.
func (s *Skiplist) findSplice(key []byte, prev *[maxHeight]node, next *[maxHeight]uint32) {
	x := node(&s.head)
	for level := maxHeight - 1; level >= 0; level-- {
		x, next[level] = s.findSpliceForLevel(key, level, x)
		prev[level] = x
	}
}

// findSpliceForLevel computes the splice at one level, walking forward from
// start (whose key is known to be < key).
func (s *Skiplist) findSpliceForLevel(k []byte, level int, start node) (prev node, next uint32) {
	prev = start
	for {
		next = link(prev, level).Load()
		if next == 0 {
			return prev, 0
		}
		n := s.arena.at(next)
		if s.cmp(key(n), k) >= 0 {
			return prev, next
		}
		prev = n
	}
}

// Add inserts the entry whose key is key followed by suffix (the memtable's
// user key and trailer; suffix may be nil), composing it in the arena: all
// three arguments are copied and may be reused when Add returns. The caller
// must ensure the key is not already present. Add is safe for concurrent
// use: each link is spliced with a CAS, retrying from a recomputed splice
// point on contention.
func (s *Skiplist) Add(k, suffix, v []byte) {
	h := s.randomHeight()
	for {
		cur := s.height.Load()
		if int(cur) >= h || s.height.CompareAndSwap(cur, int32(h)) {
			break
		}
	}

	klen := len(k) + len(suffix)
	size := nodeHeader + linkSize*h + klen + len(v)
	if uint64(size) > math.MaxUint32-chunkStart-4 {
		panic("skiplist: entry too large")
	}
	self := s.arena.alloc(size)
	n := s.arena.at(self)
	*header(n) = [...]uint32{uint32(klen), uint32(len(v)), uint32(h)}
	ikey := key(n)
	copy(ikey[copy(ikey, k):], suffix)
	copy(value(n), v)

	var prev [maxHeight]node
	var next [maxHeight]uint32
	s.findSplice(ikey, &prev, &next)
	for i := 0; i < h; i++ {
		p, nx := prev[i], next[i]
		for {
			link(n, i).Store(nx)
			if link(p, i).CompareAndSwap(nx, self) {
				break
			}
			// Lost the race at this level: another insert landed between
			// p and nx. Re-search from p (its key is still < ours; nodes
			// are never unlinked) and retry the splice.
			p, nx = s.findSpliceForLevel(ikey, i, p)
		}
	}
	s.size.Add(int64(klen + len(v) + entryCharge))
	s.count.Add(1)
}

// FindGE returns the first entry with key >= target, without materializing
// an iterator — the memtable's point-read fast path. The slices alias the
// arena.
func (s *Skiplist) FindGE(target []byte) (k, v []byte, ok bool) {
	n := s.findGE(target)
	if n == nil {
		return nil, nil, false
	}
	return key(n), value(n), true
}

// ApproxSize returns what the list charges for its entries: key and value
// bytes plus a fixed 64 an entry. It is the number flush thresholds compare,
// not the arena's footprint (see entryCharge).
func (s *Skiplist) ApproxSize() int64 { return s.size.Load() }

// Len returns the number of entries.
func (s *Skiplist) Len() int { return int(s.count.Load()) }

// Iter is a cursor over the skiplist. It is valid to keep iterating while
// writers insert; the iterator observes a consistent ordering, possibly
// including concurrently inserted entries. Key and Value alias the arena,
// which lives as long as anything refers to it.
type Iter struct {
	list *Skiplist
	node node
}

// NewIter returns an unpositioned iterator.
func (s *Skiplist) NewIter() *Iter { return &Iter{list: s} }

// InitIter readies a caller-allocated iterator, the allocation-free
// counterpart to NewIter for pooled iterator stacks.
func (s *Skiplist) InitIter(it *Iter) { *it = Iter{list: s} }

// Valid reports whether the iterator is positioned on an entry.
func (it *Iter) Valid() bool { return it.node != nil }

// Key returns the current key. Only valid when Valid().
func (it *Iter) Key() []byte { return key(it.node) }

// Value returns the current value. Only valid when Valid().
func (it *Iter) Value() []byte { return value(it.node) }

// First positions the iterator at the smallest entry.
func (it *Iter) First() {
	it.node = it.list.follow(node(&it.list.head), 0)
}

// SeekGE positions the iterator at the first entry with key >= target.
func (it *Iter) SeekGE(target []byte) {
	it.node = it.list.findGE(target)
}

// SeekLT positions the iterator at the last entry with key < target.
func (it *Iter) SeekLT(target []byte) {
	it.node = it.list.findLT(target)
}

// Last positions the iterator at the largest entry.
func (it *Iter) Last() {
	it.node = it.list.findLast()
}

// Next advances to the next entry.
func (it *Iter) Next() {
	it.node = it.list.follow(it.node, 0)
}

// Prev moves back one entry. The list is singly linked, so this re-descends
// from the head (O(log n), as in LevelDB's skiplist).
func (it *Iter) Prev() {
	it.node = it.list.findLT(key(it.node))
}

package skiplist

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// A link is a chunk number above chunkBits bits of byte offset into
	// that chunk, so a chunk that holds more than one node is at most
	// maxChunk bytes and the arena at most maxChunks chunks: 4 GiB.
	chunkBits = 24
	maxChunk  = 1 << chunkBits
	maxChunks = 1 << (32 - chunkBits)
	// The first chunks are minChunk bytes, and each further one a quarter of
	// what the arena already holds, up to maxChunk: a list of a few entries
	// costs a few KiB, and a list of any size has at most a fifth of its
	// arena still unused.
	minChunk = 4 << 10
	// chunkStart keeps the first word of every chunk free, so no node sits
	// at link 0, the nil link.
	chunkStart = 4
)

// arena hands out space for nodes from a growing set of byte chunks. Space
// is never handed out twice and never given back: readers hold slices into
// the chunks for as long as they like (a Get's value, an iterator's key),
// so a list's memory returns to the collector whole, when the last
// reference to it goes.
type arena struct {
	// chunks[i] is the first byte of chunk i, nil until grow adds it; it is
	// set before any link into the chunk exists.
	chunks [maxChunks]atomic.Pointer[byte]
	// tail is what is left of the chunk being filled: the number of free
	// bytes above the link of the first of them. alloc takes from it with
	// one CAS.
	tail atomic.Uint64

	mu    sync.Mutex // serializes grow
	n     int        // chunks added
	bytes int        // their sizes, summed
}

// at resolves a link to the address it names.
func (a *arena) at(link uint32) unsafe.Pointer {
	return unsafe.Add(unsafe.Pointer(a.chunks[link>>chunkBits].Load()), link&(maxChunk-1))
}

// alloc returns the link of n fresh zeroed bytes, aligned to four and
// followed by at least one byte of padding: the address just past the n
// bytes (an empty value's) is still inside the chunk, where the collector
// accepts it.
func (a *arena) alloc(n int) uint32 {
	n = (n + 4) &^ 3
	for {
		t := a.tail.Load()
		next, free := uint32(t), int(t>>32)
		if n <= free {
			if a.tail.CompareAndSwap(t, uint64(free-n)<<32|uint64(next+uint32(n))) {
				return next
			}
			continue
		}
		if link, ok := a.grow(t, n); ok {
			return link
		}
	}
}

// grow adds the chunk that an allocation of n bytes, which did not fit at
// tail t, is served from. It reports false when the tail has moved since:
// the caller tries again.
func (a *arena) grow(t uint64, n int) (uint32, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tail.Load() != t {
		return 0, false
	}
	if a.n == maxChunks {
		panic("skiplist: arena full")
	}
	size := min(max(minChunk, a.bytes/4&^(minChunk-1)), maxChunk)
	if size < chunkStart+n {
		// An entry larger than a chunk gets one of its own, exactly its
		// size (beyond maxChunk too: only its first node needs a link).
		size = chunkStart + n
	}
	link := uint32(a.n<<chunkBits | chunkStart)
	a.chunks[a.n].Store(unsafe.SliceData(make([]byte, size)))
	a.n++
	a.bytes += size
	// Allocations that still fit the old chunk may win their CAS against
	// this store; they keep what they were given, and the rest of that chunk
	// is left unused.
	a.tail.Store(uint64(size-chunkStart-n)<<32 | uint64(link+uint32(n)))
	return link, true
}

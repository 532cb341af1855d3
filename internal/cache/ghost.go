package cache

import "math/bits"

// ghost remembers the key hashes of the blocks that left a shard's small
// FIFO unread, so that a block read again soon after is admitted straight to
// main. It is a ring that forgets the oldest hash once it holds as many as
// the shard has held entries at its fullest, and an open-addressed index
// over the ring, so that a lookup costs the same at any cache size. Both are
// arrays of integers that grow only when that count reaches a new peak: a
// ghost in steady state allocates nothing and keeps no Key and no pointer.
type ghost struct {
	// ring holds hashes in arrival order, ring[next] the oldest once the
	// ring is full; 0 is a slot forgotten early (readmitted), which is why
	// add stores hashes with the low bit set.
	ring []uint64
	next int
	// index holds ring positions plus one, 0 for an empty slot: a hash sits
	// at the slot its top bits name or in the run of full slots after it.
	// It is at most half full.
	index []int32
	shift uint // 64 - log2(len(index))
}

// find returns the index slot that holds h, or the empty slot where h would
// go.
func (g *ghost) find(h uint64) (slot int, found bool) {
	mask := len(g.index) - 1
	for i := int(h >> g.shift); ; i = (i + 1) & mask {
		switch p := g.index[i]; {
		case p == 0:
			return i, false
		case g.ring[p-1] == h:
			return i, true
		}
	}
}

// forget empties index slot i and the ring slot it points at, moving back
// each later hash of the run that would otherwise be cut off from its home
// slot (backward-shift deletion: no tombstones to lengthen the runs).
func (g *ghost) forget(i int) {
	mask := len(g.index) - 1
	g.ring[g.index[i]-1] = 0
	for j := (i + 1) & mask; g.index[j] != 0; j = (j + 1) & mask {
		home := int(g.ring[g.index[j]-1] >> g.shift)
		if (j-home)&mask >= (j-i)&mask { // home is not in (i, j]
			g.index[i] = g.index[j]
			i = j
		}
	}
	g.index[i] = 0
}

// readmit reports whether the ghost remembers h, and forgets it if so.
func (g *ghost) readmit(h uint64) bool {
	if len(g.ring) == 0 {
		return false
	}
	i, ok := g.find(h | 1)
	if ok {
		g.forget(i)
	}
	return ok
}

// add remembers h, forgetting the oldest hash if the ring is full; entries
// is the number of entries the shard holds.
func (g *ghost) add(h uint64, entries int) {
	h |= 1
	if entries > len(g.ring) {
		g.grow(entries)
	}
	if old := g.ring[g.next]; old != 0 {
		i, _ := g.find(old)
		g.forget(i)
	}
	i, ok := g.find(h)
	if ok {
		return // two keys that hash alike
	}
	g.ring[g.next] = h
	g.index[i] = int32(g.next + 1)
	if g.next++; g.next == len(g.ring) {
		g.next = 0
	}
}

// grow makes the ring n slots long, keeping what it remembers in order.
func (g *ghost) grow(n int) {
	old, oldNext := g.ring, g.next
	size := 2
	for size < 2*n {
		size *= 2
	}
	g.ring, g.next = make([]uint64, n), 0
	g.index = make([]int32, size)
	g.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for k := range old {
		if h := old[(oldNext+k)%len(old)]; h != 0 {
			i, _ := g.find(h)
			g.ring[g.next] = h
			g.index[i] = int32(g.next + 1)
			g.next++
		}
	}
}

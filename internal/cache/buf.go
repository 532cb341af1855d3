package cache

import (
	"sync"
	"sync/atomic"

	"pebblesdb/internal/race"
)

// Buf is a block payload with a count of its holders. Alloc returns one
// holding a single reference, the caller's; the cache takes another for as
// long as it keeps the block, and Acquire hands one to each reader. Whoever
// holds a reference may read Bytes; the last Release gives the memory to
// the next Alloc of the same size class, so nothing may be read through a
// reference that has been released. A reference that is never released is
// safe: the buffer is then never reused and the garbage collector takes it.
type Buf struct {
	refs  atomic.Int32
	class int32
	b     []byte
}

const (
	// classBytes is the step between pooled capacities. Data blocks close
	// at BlockSize plus at most an entry, so at the default 4 KiB nearly
	// every payload lands in the 4.5 KiB class and wastes under a step.
	classBytes = 512
	// numClasses bounds pooled capacities at 32 KiB; a larger payload is an
	// allocation of its own that the last Release leaves to the collector.
	numClasses = 64
	// wrapped is the class of a Buf around a slice that stays its caller's
	// (Set): only the header is reused.
	wrapped  = 0
	unpooled = -1
)

var pools [numClasses + 1]sync.Pool

// Alloc returns a buffer of n bytes, contents undefined, with one
// reference.
func Alloc(n int) *Buf {
	class := max((n+classBytes-1)/classBytes, 1)
	var b *Buf
	if class > numClasses {
		b = &Buf{class: unpooled, b: make([]byte, n)}
	} else if b, _ = pools[class].Get().(*Buf); b == nil {
		b = &Buf{class: int32(class), b: make([]byte, class*classBytes)}
	}
	b.b = b.b[:n]
	b.refs.Store(1)
	return b
}

// wrap returns a Buf around p with one reference.
func wrap(p []byte) *Buf {
	b, _ := pools[wrapped].Get().(*Buf)
	if b == nil {
		b = &Buf{class: wrapped}
	}
	b.b = p
	b.refs.Store(1)
	return b
}

// Bytes returns the payload; nil for a nil Buf.
func (b *Buf) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.b
}

// Release drops one reference; on a nil Buf, a holder with nothing held, it
// does nothing. One Release more than there were references is a bug in a
// holder and panics. Under the race detector a buffer nobody holds is
// poisoned instead of reused: a reader that kept bytes past its Release
// then sees 0xCC, and the detector sees its read beside this write.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	switch n := b.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("cache: Buf released more often than it was referenced")
	}
	switch {
	case b.class == wrapped:
		b.b = nil
		pools[wrapped].Put(b)
	case race.Enabled:
		p := b.b[:cap(b.b)]
		for i := range p {
			p[i] = 0xCC
		}
	case b.class != unpooled:
		pools[b.class].Put(b)
	}
}

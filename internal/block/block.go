// Package block implements the sstable block format: prefix-compressed
// key/value entries with periodic restart points that allow binary search
// within a block. The format follows LevelDB (PebblesDB keeps the sstable
// format unchanged, §4.3.1).
package block

import (
	"encoding/binary"
	"errors"
)

// ErrCorrupt indicates a block that failed structural validation.
var ErrCorrupt = errors.New("block: corrupt block")

// Builder assembles a block. Keys must be added in strictly increasing
// order (by the caller's comparator).
type Builder struct {
	buf             []byte
	restarts        []uint32
	restartInterval int
	counter         int
	lastKey         []byte
}

// NewBuilder returns a Builder placing a restart point every
// restartInterval entries.
func NewBuilder(restartInterval int) *Builder {
	if restartInterval < 1 {
		restartInterval = 1
	}
	return &Builder{restartInterval: restartInterval, restarts: []uint32{0}}
}

// Reset clears the builder for reuse.
func (b *Builder) Reset() {
	b.buf = b.buf[:0]
	b.restarts = append(b.restarts[:0], 0)
	b.counter = 0
	b.lastKey = b.lastKey[:0]
}

// Add appends a key/value entry.
func (b *Builder) Add(key, value []byte) {
	shared := 0
	if b.counter < b.restartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	b.buf = appendUvarint(b.buf, uint64(shared))
	b.buf = appendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = appendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
}

// EstimatedSize returns the current encoded size.
func (b *Builder) EstimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

// Empty reports whether no entries have been added.
func (b *Builder) Empty() bool { return len(b.buf) == 0 }

// Finish returns the completed block. The builder must be Reset before
// reuse; the returned slice aliases the builder's buffer.
func (b *Builder) Finish() []byte {
	var tmp [4]byte
	for _, r := range b.restarts {
		binary.LittleEndian.PutUint32(tmp[:], r)
		b.buf = append(b.buf, tmp[:]...)
	}
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b.restarts)))
	b.buf = append(b.buf, tmp[:]...)
	return b.buf
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// Iter is a cursor over an encoded block. The zero value is not positioned;
// Init (or NewIter) must run first. An Iter is reusable across blocks via
// Init, which retains the internal key buffer — the point-read path keeps a
// pooled Iter per Get so steady-state block probes allocate nothing.
type Iter struct {
	cmp  func(a, b []byte) int
	data []byte // entries region only
	// restarts is the raw restart array (4 bytes per entry), read lazily so
	// Init never allocates a decoded []uint32.
	restarts    []byte
	numRestarts int
	off         int // offset of current entry in data
	nextOff     int
	key         []byte
	val         []byte
	valid       bool
	err         error
}

// NewIter returns an iterator over an encoded block using cmp.
func NewIter(data []byte, cmp func(a, b []byte) int) (*Iter, error) {
	it := &Iter{}
	if err := it.Init(data, cmp); err != nil {
		return nil, err
	}
	return it, nil
}

// Init points the iterator at a new block, retaining the key buffer's
// capacity. It validates the restart array structurally; on error the
// iterator is invalid and Error reports ErrCorrupt.
func (i *Iter) Init(data []byte, cmp func(a, b []byte) int) error {
	return i.init(data, cmp, true)
}

// InitValidated is Init without the O(restarts) bounds scan, for blocks the
// caller has validated before — a table's resident index block (restart
// interval 1, so the scan is O(entries)) is checked once at Open and then
// probed on every Get.
func (i *Iter) InitValidated(data []byte, cmp func(a, b []byte) int) error {
	return i.init(data, cmp, false)
}

func (i *Iter) init(data []byte, cmp func(a, b []byte) int, validate bool) error {
	*i = Iter{cmp: cmp, key: i.key[:0]}
	if len(data) < 4 {
		i.err = ErrCorrupt
		return i.err
	}
	n := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	restartsEnd := len(data) - 4
	restartsStart := restartsEnd - 4*n
	if n < 1 || restartsStart < 0 {
		i.err = ErrCorrupt
		return i.err
	}
	if validate {
		for j := 0; j < n; j++ {
			if int(binary.LittleEndian.Uint32(data[restartsStart+4*j:])) > restartsStart {
				i.err = ErrCorrupt
				return i.err
			}
		}
	}
	i.data = data[:restartsStart]
	i.restarts = data[restartsStart:restartsEnd]
	i.numRestarts = n
	return nil
}

// Release drops the iterator's references into the current block, so a
// pooled iterator does not pin block payloads while idle. The key buffer's
// capacity is retained for the next Init.
func (i *Iter) Release() {
	*i = Iter{key: i.key[:0]}
}

// restart returns the entry offset of restart point j.
func (i *Iter) restart(j int) int {
	return int(binary.LittleEndian.Uint32(i.restarts[4*j:]))
}

// decodeAt decodes the entry at off, returning the next entry's offset.
// Returns -1 on corruption.
func (i *Iter) decodeAt(off int, prevKey []byte) int {
	p := i.data[off:]
	// shared, unshared and value length: nearly always a byte each, which
	// is read here; binary.Uvarint takes the rest.
	var lens [3]uint64
	h := 0
	for f := range lens {
		if h < len(p) && p[h] < 0x80 {
			lens[f] = uint64(p[h])
			h++
			continue
		}
		v, n := binary.Uvarint(p[h:])
		if n <= 0 {
			return -1
		}
		lens[f] = v
		h += n
	}
	shared, unshared, vlen := lens[0], lens[1], lens[2]
	// Compared without adding: the two lengths are disk bytes and their sum
	// can wrap.
	if rest := uint64(len(p) - h); unshared > rest || vlen > rest-unshared || uint64(len(prevKey)) < shared {
		return -1
	}
	i.key = append(i.key[:0], prevKey[:shared]...)
	i.key = append(i.key, p[h:h+int(unshared)]...)
	i.val = p[h+int(unshared) : h+int(unshared)+int(vlen)]
	return off + h + int(unshared) + int(vlen)
}

func (i *Iter) corrupt() {
	i.valid = false
	i.err = ErrCorrupt
}

// First positions at the first entry.
func (i *Iter) First() {
	if len(i.data) == 0 {
		i.valid = false
		return
	}
	i.off = 0
	next := i.decodeAt(0, nil)
	if next < 0 {
		i.corrupt()
		return
	}
	i.nextOff = next
	i.valid = true
}

// Next advances to the following entry.
func (i *Iter) Next() {
	if !i.valid {
		return
	}
	if i.nextOff >= len(i.data) {
		i.valid = false
		return
	}
	i.off = i.nextOff
	next := i.decodeAt(i.off, i.key)
	if next < 0 {
		i.corrupt()
		return
	}
	i.nextOff = next
}

// Last positions at the final entry.
func (i *Iter) Last() {
	if len(i.data) == 0 {
		i.valid = false
		return
	}
	off := i.restart(i.numRestarts - 1)
	next := i.decodeAt(off, nil)
	if next < 0 {
		i.corrupt()
		return
	}
	for next < len(i.data) {
		off = next
		if next = i.decodeAt(off, i.key); next < 0 {
			i.corrupt()
			return
		}
	}
	i.off, i.nextOff = off, next
	i.valid = true
}

// Prev moves back one entry. Prefix compression only chains forward, so
// this restarts from the nearest restart point before the current entry and
// walks up to it.
func (i *Iter) Prev() {
	if !i.valid {
		return
	}
	if i.off == 0 {
		i.valid = false
		return
	}
	// Find the last restart strictly before the current entry; restart 0
	// is offset 0, so one always exists.
	lo, hi := 0, i.numRestarts-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if i.restart(mid) < i.off {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	target := i.off
	off := i.restart(lo)
	// A restart array out of order can name no entry before this one; without
	// the check Prev would stand still and its caller loop for ever.
	next := -1
	if off < target {
		next = i.decodeAt(off, nil)
	}
	if next < 0 {
		i.corrupt()
		return
	}
	for next < target {
		off = next
		if next = i.decodeAt(off, i.key); next < 0 {
			i.corrupt()
			return
		}
	}
	i.off, i.nextOff = off, next
}

// SeekLT positions at the last entry with key < target.
func (i *Iter) SeekLT(target []byte) {
	i.SeekGE(target)
	if i.err != nil {
		return
	}
	if i.valid {
		i.Prev()
	} else {
		// Every entry is < target (or the block is empty).
		i.Last()
	}
}

// SeekGE positions at the first entry with key >= target. This is also the
// point-probe entry: when the restart binary search ends on the chosen
// restart (its entry already sits in the iterator's buffers), the final
// re-decode of that entry is skipped.
func (i *Iter) SeekGE(target []byte) {
	if len(i.data) == 0 {
		// Entry-less blocks are legal (the index of a table holding only
		// range tombstones); there is nothing at or after any target.
		i.valid = false
		return
	}
	// Binary search the restart points: find the last restart whose key is
	// < target, then scan forward.
	lo, hi := 0, i.numRestarts-1
	haveLo := false // i.key/i.val hold restart(lo)'s entry
	var loNext int
	for lo < hi {
		mid := (lo + hi + 1) / 2
		next := i.decodeAt(i.restart(mid), nil)
		if next < 0 {
			i.corrupt()
			return
		}
		if i.cmp(i.key, target) < 0 {
			lo, haveLo, loNext = mid, true, next
		} else {
			// The decode overwrote the buffers; lo's entry is gone.
			hi, haveLo = mid-1, false
		}
	}
	i.off = i.restart(lo)
	if !haveLo {
		if loNext = i.decodeAt(i.off, nil); loNext < 0 {
			i.corrupt()
			return
		}
	}
	i.nextOff = loNext
	i.valid = true
	for i.valid && i.cmp(i.key, target) < 0 {
		i.Next()
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (i *Iter) Valid() bool { return i.valid }

// Key returns the current key; valid until the next positioning call.
func (i *Iter) Key() []byte { return i.key }

// Value returns the current value, aliasing the block.
func (i *Iter) Value() []byte { return i.val }

// Error returns any corruption error encountered.
func (i *Iter) Error() error { return i.err }

// Close releases the iterator.
func (i *Iter) Close() error { return i.err }

// Package bloom implements the sstable-level bloom filters PebblesDB
// attaches to every sstable (§4.1). A filter is built once per sstable over
// all user keys in the table and is consulted on every get to skip tables
// that cannot contain the key. False positives are possible; false
// negatives are not.
package bloom

import (
	"encoding/binary"

	"pebblesdb/internal/murmur"
)

const bloomSeed = 0xbc9f1d34

// Filter is an immutable encoded bloom filter. The encoding is the bit
// array followed by a single byte holding the number of probes.
type Filter []byte

// Hash is the hash a filter is built from and probed with.
func Hash(key []byte) uint64 { return murmur.Hash64(key, bloomSeed) }

// Build constructs a filter over keys using bitsPerKey bits per key.
func Build(keys [][]byte, bitsPerKey int) Filter {
	f, k, bits := newFilter(len(keys), bitsPerKey)
	for _, key := range keys {
		f.set(Hash(key), k, bits)
	}
	return f
}

// BuildFromHashes constructs the filter Build would over the keys whose
// Hash values are given, using bitsPerKey bits per key. A table writer
// collects eight bytes a key instead of a copy of every key.
func BuildFromHashes(hashes []uint64, bitsPerKey int) Filter {
	f, k, bits := newFilter(len(hashes), bitsPerKey)
	for _, h := range hashes {
		f.set(h, k, bits)
	}
	return f
}

// newFilter returns the empty filter for n keys at bitsPerKey bits per key,
// with its number of probes and of bits.
func newFilter(n, bitsPerKey int) (f Filter, k uint8, bits uint32) {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	// k = bitsPerKey * ln(2), clamped to a sane range.
	k = uint8(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	nBits := n * bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	nBytes := (nBits + 7) / 8
	f = make(Filter, nBytes+1)
	f[nBytes] = k
	return f, k, uint32(nBytes * 8)
}

// set sets the k bits of the key with hash h, of the filter's bits: the one
// loop that writes a filter.
func (f Filter) set(h uint64, k uint8, bits uint32) {
	// Double hashing: derive k probe positions from one 64-bit hash.
	h1 := uint32(h)
	delta := uint32(h >> 32)
	for i := uint8(0); i < k; i++ {
		pos := h1 % bits
		f[pos/8] |= 1 << (pos % 8)
		h1 += delta
	}
}

// MayContain reports whether key may be in the set the filter was built
// over. A false return is definitive.
func (f Filter) MayContain(key []byte) bool { return f.MayContainHash(Hash(key)) }

// MayContainHash is MayContain for the key whose Hash is h: a read that
// consults several filters for one key hashes it once.
func (f Filter) MayContainHash(h uint64) bool {
	if len(f) < 2 {
		return true // degenerate filter: claim everything
	}
	k := f[len(f)-1]
	if k < 1 || k > 30 {
		return true // unknown encoding: be safe
	}
	bits := uint32((len(f) - 1) * 8)
	h1 := uint32(h)
	delta := uint32(h >> 32)
	for i := uint8(0); i < k; i++ {
		pos := h1 % bits
		if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h1 += delta
	}
	return true
}

// EncodeInto appends the filter with a length prefix to dst.
func EncodeInto(dst []byte, f Filter) []byte {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(f)))
	dst = append(dst, lenBuf[:n]...)
	return append(dst, f...)
}

// Decode reads a length-prefixed filter from src, returning the filter and
// the remaining bytes.
func Decode(src []byte) (Filter, []byte, bool) {
	l, n := binary.Uvarint(src)
	if n <= 0 || uint64(len(src)-n) < l {
		return nil, nil, false
	}
	return Filter(src[n : n+int(l)]), src[n+int(l):], true
}

// Package compress implements the Snappy block format in pure Go (no
// external dependencies): the per-block compression codec used by sstable
// format v2. The format is fully compatible with the reference Snappy
// implementation — streams produced here decode with any Snappy library and
// vice versa — so on-disk tables remain portable. Only the block format is
// implemented (no framing), matching how LevelDB/RocksDB compress sstable
// blocks.
//
// Format summary (https://github.com/google/snappy/blob/main/format_description.txt):
// a varint-encoded decompressed length, then a sequence of elements. Each
// element starts with a tag byte whose low 2 bits select the type:
//
//	00 literal: upper 6 bits hold len-1, or 60..63 meaning the length is
//	   stored in the following 1..4 little-endian bytes.
//	01 copy, 1-byte offset: bits 2-4 hold len-4 (4..11), bits 5-7 are the
//	   offset's high 3 bits, the next byte its low 8 (offset < 2048).
//	10 copy, 2-byte offset: bits 2-7 hold len-1 (1..64), followed by a
//	   2-byte little-endian offset.
//	11 copy, 4-byte offset: as above with a 4-byte offset.
package compress

import (
	"encoding/binary"
	"errors"
)

// Kind selects a block codec.
type Kind int

const (
	// Default, the zero value, is Snappy: per-block compression is a
	// default-on throughput optimization in every production LSM (LevelDB,
	// RocksDB, Pebble) — it cuts write IO during flush/compaction and read
	// IO on cold lookups.
	Default Kind = iota
	// None stores blocks uncompressed.
	None
	// Snappy compresses blocks with the Snappy block format.
	Snappy
)

// String returns the display name of the codec the value selects: every
// value but None selects Snappy, so reporting always matches behavior.
func (k Kind) String() string {
	if k == None {
		return "none"
	}
	return "snappy"
}

// ErrCorrupt reports a structurally invalid Snappy stream.
var ErrCorrupt = errors.New("compress: corrupt snappy input")

// ErrTooLarge reports a decoded length beyond what this implementation
// handles (the sstable writer never produces such blocks).
var ErrTooLarge = errors.New("compress: decoded length too large")

const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03

	// maxBlockSize is the fragment size the encoder works in; offsets
	// within a fragment fit the uint16 hash-table entries.
	maxBlockSize = 1 << 16

	// inputMargin guarantees the fast-path match loop may read a few bytes
	// beyond the current position without bounds checks failing.
	inputMargin = 16 - 1

	// minNonLiteralBlockSize is the smallest fragment worth searching for
	// matches in; anything shorter is emitted as one literal.
	minNonLiteralBlockSize = 1 + 1 + inputMargin

	// maxDecodedLen bounds Decode allocations against corrupt headers.
	maxDecodedLen = 1 << 30
)

// MaxEncodedLen returns the worst-case encoded size for srcLen input bytes,
// or -1 when srcLen is too large to encode.
func MaxEncodedLen(srcLen int) int {
	n := uint64(srcLen)
	if n > 0xffffffff {
		return -1
	}
	// Header plus incompressible literal expansion: one tag byte per 60
	// literal bytes in the worst sustained case, bounded by n/6 + 32.
	n = 32 + n + n/6
	if n > 0xffffffff {
		return -1
	}
	return int(n)
}

// Encode compresses src, appending nothing: it returns a slice of dst if
// dst was large enough, else a freshly allocated buffer. Encode of an empty
// src is valid and produces a 1-byte stream.
func Encode(dst, src []byte) []byte {
	if n := MaxEncodedLen(len(src)); n < 0 {
		panic("compress: source too large")
	} else if cap(dst) < n {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}

	d := binary.PutUvarint(dst, uint64(len(src)))
	for len(src) > 0 {
		p := src
		if len(p) > maxBlockSize {
			p, src = p[:maxBlockSize], src[maxBlockSize:]
		} else {
			src = nil
		}
		if len(p) < minNonLiteralBlockSize {
			d += emitLiteral(dst[d:], p)
		} else {
			d += encodeBlock(dst[d:], p)
		}
	}
	return dst[:d]
}

// emitLiteral writes a literal element for lit into dst and returns the
// bytes written. dst must be large enough (MaxEncodedLen guarantees it).
func emitLiteral(dst, lit []byte) int {
	i, n := 0, uint(len(lit)-1)
	switch {
	case n < 60:
		dst[0] = uint8(n)<<2 | tagLiteral
		i = 1
	case n < 1<<8:
		dst[0] = 60<<2 | tagLiteral
		dst[1] = uint8(n)
		i = 2
	default:
		dst[0] = 61<<2 | tagLiteral
		dst[1] = uint8(n)
		dst[2] = uint8(n >> 8)
		i = 3
	}
	return i + copy(dst[i:], lit)
}

// emitCopy writes copy elements covering length bytes at the given offset.
func emitCopy(dst []byte, offset, length int) int {
	i := 0
	// Long matches become 64-byte copy-2 elements, leaving a remainder in
	// 4..68 so the final element is always encodable.
	for length >= 68 {
		dst[i] = 63<<2 | tagCopy2
		dst[i+1] = uint8(offset)
		dst[i+2] = uint8(offset >> 8)
		i += 3
		length -= 64
	}
	if length > 64 {
		dst[i] = 59<<2 | tagCopy2
		dst[i+1] = uint8(offset)
		dst[i+2] = uint8(offset >> 8)
		i += 3
		length -= 60
	}
	if length >= 12 || offset >= 2048 {
		dst[i] = uint8(length-1)<<2 | tagCopy2
		dst[i+1] = uint8(offset)
		dst[i+2] = uint8(offset >> 8)
		return i + 3
	}
	dst[i] = uint8(offset>>8)<<5 | uint8(length-4)<<2 | tagCopy1
	dst[i+1] = uint8(offset)
	return i + 2
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i : i+4])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i : i+8])
}

func hash(u, shift uint32) uint32 {
	return (u * 0x1e35a7bd) >> shift
}

// encodeBlock compresses one fragment of len [minNonLiteralBlockSize,
// maxBlockSize] into dst and returns the bytes written. The greedy
// hash-table match search follows the reference implementation: probe a
// 4-byte hash chain, extend matches byte-wise, and skip ahead faster
// through incompressible regions.
func encodeBlock(dst, src []byte) (d int) {
	const (
		maxTableSize = 1 << 14
		tableMask    = maxTableSize - 1
	)
	shift := uint32(32 - 8)
	for tableSize := 1 << 8; tableSize < maxTableSize && tableSize < len(src); tableSize *= 2 {
		shift--
	}
	var table [maxTableSize]uint16

	sLimit := len(src) - inputMargin
	nextEmit := 0
	s := 1
	nextHash := hash(load32(src, s), shift)

	for {
		// Probe for a match, skipping ahead 1 extra byte per 32 misses so
		// incompressible input costs ~O(n).
		skip := 32
		nextS := s
		candidate := 0
		for {
			s = nextS
			bytesBetweenHashLookups := skip >> 5
			nextS = s + bytesBetweenHashLookups
			skip += bytesBetweenHashLookups
			if nextS > sLimit {
				goto emitRemainder
			}
			candidate = int(table[nextHash&tableMask])
			table[nextHash&tableMask] = uint16(s)
			nextHash = hash(load32(src, nextS), shift)
			if load32(src, s) == load32(src, candidate) {
				break
			}
		}

		d += emitLiteral(dst[d:], src[nextEmit:s])

		for {
			base := s
			s += 4
			for i := candidate + 4; s < len(src) && src[i] == src[s]; i, s = i+1, s+1 {
			}
			d += emitCopy(dst[d:], base-candidate, s-base)
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}

			// Index the position before the one just past the match too:
			// compressible data often repeats with a 1-byte phase shift.
			x := load64(src, s-1)
			prevHash := hash(uint32(x>>0), shift)
			table[prevHash&tableMask] = uint16(s - 1)
			currHash := hash(uint32(x>>8), shift)
			candidate = int(table[currHash&tableMask])
			table[currHash&tableMask] = uint16(s)
			if uint32(x>>8) != load32(src, candidate) {
				nextHash = hash(uint32(x>>16), shift)
				s++
				break
			}
		}
	}

emitRemainder:
	if nextEmit < len(src) {
		d += emitLiteral(dst[d:], src[nextEmit:])
	}
	return d
}

// DecodedLen returns the decompressed length declared in src's header.
func DecodedLen(src []byte) (int, error) {
	n, _, err := decodedLen(src)
	return n, err
}

func decodedLen(src []byte) (blockLen, headerLen int, err error) {
	v, n := binary.Uvarint(src)
	if n <= 0 || v > 0xffffffff {
		return 0, 0, ErrCorrupt
	}
	if v > maxDecodedLen {
		return 0, 0, ErrTooLarge
	}
	return int(v), n, nil
}

// Decode decompresses src into dst (reused when large enough) and returns
// the decoded bytes. Any structural violation — truncated elements, copies
// reaching before the output start, a length mismatch — returns ErrCorrupt.
func Decode(dst, src []byte) ([]byte, error) {
	dLen, s, err := decodedLen(src)
	if err != nil {
		return nil, err
	}
	if cap(dst) < dLen {
		dst = make([]byte, dLen)
	} else {
		dst = dst[:dLen]
	}

	var d, offset, length int
	for s < len(src) {
		switch src[s] & 0x03 {
		case tagLiteral:
			x := uint32(src[s] >> 2)
			switch {
			case x < 60:
				s++
			case x == 60:
				s += 2
				if s > len(src) {
					return nil, ErrCorrupt
				}
				x = uint32(src[s-1])
			case x == 61:
				s += 3
				if s > len(src) {
					return nil, ErrCorrupt
				}
				x = uint32(src[s-2]) | uint32(src[s-1])<<8
			case x == 62:
				s += 4
				if s > len(src) {
					return nil, ErrCorrupt
				}
				x = uint32(src[s-3]) | uint32(src[s-2])<<8 | uint32(src[s-1])<<16
			default: // x == 63
				s += 5
				if s > len(src) {
					return nil, ErrCorrupt
				}
				x = uint32(src[s-4]) | uint32(src[s-3])<<8 | uint32(src[s-2])<<16 | uint32(src[s-1])<<24
			}
			length = int(x) + 1
			if length <= 0 || length > dLen-d || length > len(src)-s {
				return nil, ErrCorrupt
			}
			if length <= 16 && dLen-d >= 16 && len(src)-s >= 16 {
				// Two words beat a memmove call for the short literals
				// between the copies of a block of small entries. What
				// lands past length is output not yet produced.
				binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(src[s:]))
				binary.LittleEndian.PutUint64(dst[d+8:], binary.LittleEndian.Uint64(src[s+8:]))
			} else {
				copy(dst[d:], src[s:s+length])
			}
			d += length
			s += length
			continue

		case tagCopy1:
			s += 2
			if s > len(src) {
				return nil, ErrCorrupt
			}
			length = 4 + int(src[s-2])>>2&0x7
			offset = int(uint32(src[s-2])&0xe0<<3 | uint32(src[s-1]))

		case tagCopy2:
			s += 3
			if s > len(src) {
				return nil, ErrCorrupt
			}
			length = 1 + int(src[s-3])>>2
			offset = int(uint32(src[s-2]) | uint32(src[s-1])<<8)

		case tagCopy4:
			s += 5
			if s > len(src) {
				return nil, ErrCorrupt
			}
			length = 1 + int(src[s-5])>>2
			offset = int(uint32(src[s-4]) | uint32(src[s-3])<<8 | uint32(src[s-2])<<16 | uint32(src[s-1])<<24)
		}

		if offset <= 0 || d < offset || length > dLen-d {
			return nil, ErrCorrupt
		}
		// The copy's source is the output so far, from offset bytes back. It
		// may run into its own output: offset < length replicates the last
		// offset bytes as a pattern. Each pass copies all there is of the
		// pattern, which doubles it; offset >= length is a single pass.
		if length <= 16 && offset >= 8 && dLen-d >= 16 {
			// The short copy as two words. The second load may read what
			// the first store wrote, which is the pattern continuing; a
			// word never overlaps its own source.
			start := d - offset
			binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(dst[start:]))
			binary.LittleEndian.PutUint64(dst[d+8:], binary.LittleEndian.Uint64(dst[start+8:]))
			d += length
			continue
		}
		for start, end := d-offset, d+length; d < end; {
			d += copy(dst[d:end], dst[start:d])
		}
	}
	if d != dLen {
		return nil, ErrCorrupt
	}
	return dst, nil
}

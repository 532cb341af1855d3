// Package base defines the fundamental types shared by every layer of the
// store: internal keys, sequence numbers, file numbers, and the shared
// configuration block. The encoding follows the LevelDB lineage that
// PebblesDB (SOSP 2017) builds on: an internal key is the user key followed
// by an 8-byte trailer packing a 56-bit sequence number and an 8-bit kind.
package base

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// SeqNum is a monotonically increasing version number assigned to every
// write. Only the low 56 bits are usable; the top 8 bits of the trailer hold
// the kind.
type SeqNum uint64

// MaxSeqNum is the largest representable sequence number. Reads issued
// without a snapshot use it to observe the latest committed data.
const MaxSeqNum SeqNum = (1 << 56) - 1

// Kind describes what a key-value entry represents.
type Kind uint8

const (
	// KindDelete marks a tombstone: the key has been deleted.
	KindDelete Kind = 0
	// KindSet marks a regular value.
	KindSet Kind = 1
	// KindRangeDelete marks a range tombstone: every key in [ukey, value)
	// with a smaller sequence number is deleted. The start key is the
	// internal key's user key; the exclusive end key travels in the value.
	KindRangeDelete Kind = 2
	// KindSeek is used only in search keys. It is the largest kind, so a
	// search key (ukey, seq, KindSeek) sorts before any real entry with the
	// same user key and sequence number (trailers sort descending).
	KindSeek Kind = 0xff
)

func (k Kind) String() string {
	switch k {
	case KindDelete:
		return "DEL"
	case KindSet:
		return "SET"
	case KindRangeDelete:
		return "RANGEDEL"
	case KindSeek:
		return "SEEK"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// TrailerLen is the length in bytes of an internal key trailer.
const TrailerLen = 8

// MakeTrailer packs a sequence number and kind into a trailer.
func MakeTrailer(seq SeqNum, kind Kind) uint64 {
	return uint64(seq)<<8 | uint64(kind)
}

// MakeInternalKey appends the trailer for (seq, kind) to a copy of ukey and
// returns the internal key.
func MakeInternalKey(dst, ukey []byte, seq SeqNum, kind Kind) []byte {
	dst = append(dst, ukey...)
	var tr [TrailerLen]byte
	binary.LittleEndian.PutUint64(tr[:], MakeTrailer(seq, kind))
	return append(dst, tr[:]...)
}

// MakeSearchKey builds the internal key that SeekGE uses to find the newest
// entry for ukey visible at sequence seq.
func MakeSearchKey(dst, ukey []byte, seq SeqNum) []byte {
	return MakeInternalKey(dst, ukey, seq, KindSeek)
}

// RangeDelSentinelTrailer is the trailer of an exclusive upper-bound key: a
// table whose largest internal key is (end, RangeDelSentinelTrailer)
// contains keys strictly below end (its range tombstones end at end, which
// itself is not covered). The trailer packs the maximum sequence number, so
// the sentinel sorts before every real entry of end and InternalCompare
// against real keys does the right thing on both sides of the bound.
var RangeDelSentinelTrailer = MakeTrailer(MaxSeqNum, KindRangeDelete)

// MakeRangeDelSentinelKey builds the exclusive upper-bound internal key for
// a range tombstone ending at end.
func MakeRangeDelSentinelKey(dst, end []byte) []byte {
	return MakeInternalKey(dst, end, MaxSeqNum, KindRangeDelete)
}

// IsRangeDelSentinel reports whether ikey is an exclusive upper bound built
// by MakeRangeDelSentinelKey.
func IsRangeDelSentinel(ikey []byte) bool {
	return len(ikey) >= TrailerLen && Trailer(ikey) == RangeDelSentinelTrailer
}

// DecodeInternalKey splits an internal key into its components. ok is false
// if the key is too short to contain a trailer.
func DecodeInternalKey(ikey []byte) (ukey []byte, seq SeqNum, kind Kind, ok bool) {
	if len(ikey) < TrailerLen {
		return nil, 0, 0, false
	}
	n := len(ikey) - TrailerLen
	t := binary.LittleEndian.Uint64(ikey[n:])
	return ikey[:n], SeqNum(t >> 8), Kind(t & 0xff), true
}

// UserKey returns the user-key portion of an internal key. It panics on
// malformed keys; callers own the framing.
func UserKey(ikey []byte) []byte {
	if len(ikey) < TrailerLen {
		panic("base: internal key too short")
	}
	return ikey[:len(ikey)-TrailerLen]
}

// Trailer returns the 8-byte trailer of an internal key.
func Trailer(ikey []byte) uint64 {
	return binary.LittleEndian.Uint64(ikey[len(ikey)-TrailerLen:])
}

// InternalCompare orders internal keys: ascending by user key, then
// descending by trailer (newer sequence numbers first).
func InternalCompare(a, b []byte) int {
	// A key too short to hold a trailer can only be corrupt disk bytes. It
	// gets an order, not a panic: the comparison runs inside a block seek,
	// and the decoder that reaches the entry reports the corruption.
	if len(a) < TrailerLen || len(b) < TrailerLen {
		return bytes.Compare(a, b)
	}
	au, bu := UserKey(a), UserKey(b)
	if c := bytes.Compare(au, bu); c != 0 {
		return c
	}
	at, bt := Trailer(a), Trailer(b)
	switch {
	case at > bt:
		return -1
	case at < bt:
		return 1
	}
	return 0
}

// InternalKeyString renders an internal key for debugging.
func InternalKeyString(ikey []byte) string {
	ukey, seq, kind, ok := DecodeInternalKey(ikey)
	if !ok {
		return fmt.Sprintf("<malformed:%x>", ikey)
	}
	return fmt.Sprintf("%q#%d,%s", ukey, seq, kind)
}

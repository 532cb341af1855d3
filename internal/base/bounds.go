package base

import "bytes"

// Bounds restricts iteration to user keys in [Lower, Upper). A nil side is
// unbounded. Bounds let the iterator stack prune guards and sstables whose
// key ranges cannot intersect the scan before any IO is issued.
type Bounds struct {
	// Lower is the inclusive lower user-key bound; nil = unbounded.
	Lower []byte
	// Upper is the exclusive upper user-key bound; nil = unbounded.
	Upper []byte
}

// PrefixSuccessor appends to dst the smallest key greater than every key
// having the given prefix: the prefix with its last non-0xff byte
// incremented and the tail dropped. A prefix scan is exactly the bounds
// [prefix, PrefixSuccessor(prefix)). For an all-0xff prefix no successor
// exists and nil is returned — but then every key >= prefix starts with it,
// so [prefix, +inf) is still exact and callers simply leave the upper bound
// open.
func PrefixSuccessor(dst, prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			dst = append(dst, prefix[:i+1]...)
			dst[len(dst)-1]++
			return dst
		}
	}
	return nil
}

// ContainsUserKey reports whether ukey lies within the bounds.
func (b Bounds) ContainsUserKey(ukey []byte) bool {
	if b.Lower != nil && bytes.Compare(ukey, b.Lower) < 0 {
		return false
	}
	if b.Upper != nil && bytes.Compare(ukey, b.Upper) >= 0 {
		return false
	}
	return true
}

// Overlaps reports whether the file's user-key range [smallest, largest]
// can contain a key within the bounds.
func (b Bounds) Overlaps(f *FileMetadata) bool {
	if b.Upper != nil && bytes.Compare(f.SmallestUserKey(), b.Upper) >= 0 {
		return false
	}
	if b.Lower != nil && bytes.Compare(f.LargestUserKey(), b.Lower) < 0 {
		return false
	}
	return true
}

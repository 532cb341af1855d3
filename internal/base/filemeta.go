package base

import (
	"bytes"
	"fmt"
)

// FileMetadata describes one sstable as recorded in a version. Smallest and
// Largest are internal keys and cover both point entries and range
// tombstones; a largest bound contributed by a tombstone's exclusive end is
// a range-del sentinel key (see LargestExclusive). Guard assignment (FLSM)
// is derived from the key range and the level's guard set; it is not stored
// here.
type FileMetadata struct {
	FileNum  FileNum
	Size     uint64
	Smallest []byte // internal key
	Largest  []byte // internal key

	// NumRangeDels counts range-tombstone fragments in the table's
	// range-del block; RangeDelStart/RangeDelEnd are the user-key span
	// [start, end) they cover. Zero/nil for clean tables — the common case —
	// so reads and compaction picking skip tombstone work without opening
	// the table.
	NumRangeDels  int
	RangeDelStart []byte
	RangeDelEnd   []byte
}

func (m *FileMetadata) String() string {
	s := fmt.Sprintf("%06d:%d[%s..%s]", m.FileNum, m.Size,
		InternalKeyString(m.Smallest), InternalKeyString(m.Largest))
	if m.NumRangeDels > 0 {
		s += fmt.Sprintf("+rd%d", m.NumRangeDels)
	}
	return s
}

// SmallestUserKey returns the user key of the file's smallest internal key.
func (m *FileMetadata) SmallestUserKey() []byte { return UserKey(m.Smallest) }

// LargestUserKey returns the user key of the file's largest internal key.
func (m *FileMetadata) LargestUserKey() []byte { return UserKey(m.Largest) }

// LargestExclusive reports whether the file's upper bound is exclusive: the
// largest key is a range-del sentinel, so the file holds keys strictly
// below LargestUserKey.
func (m *FileMetadata) LargestExclusive() bool { return IsRangeDelSentinel(m.Largest) }

// RangeDelSpanContains reports whether ukey lies within the file's
// tombstone span [RangeDelStart, RangeDelEnd) — the cheap pre-filter before
// opening the table's resident tombstone list.
func (m *FileMetadata) RangeDelSpanContains(ukey []byte) bool {
	return m.NumRangeDels > 0 &&
		bytes.Compare(m.RangeDelStart, ukey) <= 0 &&
		bytes.Compare(ukey, m.RangeDelEnd) < 0
}

package treebase

import (
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/sstable"
)

// tableIterWithRef ties a sequential sstable iterator's lifetime to the
// table-cache reference that backs it: Close releases the reference.
type tableIterWithRef struct {
	iterator.Iterator
	r *sstable.Reader
}

// NewTableIter returns an iterator over r that releases the caller's
// table-cache reference on Close. It is GetTableIter under the name bench/
// (frozen) calls.
func NewTableIter(r *sstable.Reader) iterator.Iterator { return GetTableIter(r) }

// NewSequentialTableIter is the sequential-read table iterator: it
// prefetches ~256KiB chunks and skips block-cache population, and like
// GetTableIter it releases the caller's table-cache reference on Close.
// Compaction inputs use it — they read every block exactly once.
func NewSequentialTableIter(r *sstable.Reader) iterator.Iterator {
	return &tableIterWithRef{Iterator: r.NewSequentialIter(), r: r}
}

func (t *tableIterWithRef) Close() error {
	err := t.Iterator.Close()
	t.r.Unref()
	return err
}

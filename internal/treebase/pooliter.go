package treebase

import (
	"sync"

	"pebblesdb/internal/iterator"
	"pebblesdb/internal/sstable"
)

// pooledTableIter is a table iterator drawn from a sync.Pool. Close gives
// back the current block and the table-cache reference and returns the
// iterator (with its retained key/index buffers) to the pool, so a warm
// Seek that opens and closes sstable iterators settles into zero
// allocations.
type pooledTableIter struct {
	sstable.TableIter
	r *sstable.Reader
}

var tableIterPool = sync.Pool{New: func() interface{} { return &pooledTableIter{} }}

// GetTableIter returns a pooled iterator over r that releases the caller's
// table-cache reference on Close. It is the scan-path table iterator;
// compactions keep NewSequentialTableIter (their iterators live long enough
// that pooling buys nothing).
func GetTableIter(r *sstable.Reader) iterator.Iterator {
	t := tableIterPool.Get().(*pooledTableIter)
	if err := t.Init(r); err != nil {
		r.Unref()
		t.ReleaseBuffers()
		tableIterPool.Put(t)
		return &iterator.Empty{Err: err}
	}
	t.r = r
	return t
}

func (t *pooledTableIter) Close() error {
	err := t.TableIter.Close()
	if t.r != nil {
		t.r.Unref()
		t.r = nil
	}
	tableIterPool.Put(t)
	return err
}

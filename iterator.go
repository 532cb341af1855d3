package pebblesdb

import "pebblesdb/internal/engine"

// Iterator walks live user keys in key order — forward or backward —
// hiding deleted keys and old versions, and staying within the bounds it
// was created with. It is not safe for concurrent use. Always Close it.
//
// Forward range queries follow the paper's pattern (§2.1): SeekGE to the
// start key, then Next until past the end key (or set UpperBound and run
// until !Valid()). Reverse scans mirror it: SeekLT (or Last) then Prev.
// Next and Prev may be freely interleaved; direction switches are handled
// by the merging iterator underneath.
//
// An Iterator is the engine's pooled iterator under the public method set,
// not a wrapper around it: NewIter hands out the pooled object itself and
// Close gives it back, so opening one allocates nothing.
type Iterator engine.Iter

// eng is the engine iterator i is.
func (i *Iterator) eng() *engine.Iter { return (*engine.Iter)(i) }

// NewIter returns an iterator over the latest committed state. A nil opts
// iterates everything; bounds restrict the iterator to [LowerBound,
// UpperBound) and prune non-overlapping guards and sstables before any IO;
// opts.Prefix additionally restricts it to keys with that prefix and (at
// the store's PrefixBloomLength) skips sstables whose prefix filter rules
// the prefix out; opts.Snapshot pins the view.
func (d *DB) NewIter(opts *IterOptions) (*Iterator, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	var eo engine.IterOptions
	if opts != nil {
		eo.Lower = opts.LowerBound
		eo.Upper = opts.UpperBound
		eo.Prefix = opts.Prefix
		if opts.Snapshot != nil {
			eo.Snapshot = opts.Snapshot.s
		}
	}
	it, err := d.eng.NewIter(&eo)
	if err != nil {
		return nil, err
	}
	return (*Iterator)(it), nil
}

// NewIterAt returns an iterator over a snapshot.
//
// Deprecated: use NewIter(&IterOptions{Snapshot: snap}).
func (d *DB) NewIterAt(snap *Snapshot) (*Iterator, error) {
	return d.NewIter(&IterOptions{Snapshot: snap})
}

// First positions at the smallest key within bounds.
func (i *Iterator) First() { i.eng().First() }

// Last positions at the largest key within bounds.
func (i *Iterator) Last() { i.eng().Last() }

// SeekGE positions at the first key >= key (clamped to LowerBound).
func (i *Iterator) SeekGE(key []byte) { i.eng().SeekGE(key) }

// SeekLT positions at the last key < key (clamped to UpperBound).
func (i *Iterator) SeekLT(key []byte) { i.eng().SeekLT(key) }

// Next advances to the next key. It must only be called when Valid.
func (i *Iterator) Next() { i.eng().Next() }

// Prev moves back to the previous key. It must only be called when Valid.
func (i *Iterator) Prev() { i.eng().Prev() }

// Valid reports whether the iterator is positioned on an entry.
func (i *Iterator) Valid() bool { return i.eng().Valid() }

// Key returns the current key; valid until the next positioning call.
func (i *Iterator) Key() []byte { return i.eng().Key() }

// Value returns the current value; valid until the next positioning call.
func (i *Iterator) Value() []byte { return i.eng().Value() }

// Error returns the first error encountered.
func (i *Iterator) Error() error { return i.eng().Error() }

// Close releases the iterator and hands it back to the pool it came from.
// Must be called exactly once: the iterator may already serve another
// caller.
func (i *Iterator) Close() error { return i.eng().Close() }

// Package memtable wraps the skiplist with internal-key framing: every
// mutation is stored under user_key++trailer so that multiple versions of a
// key coexist and reads at a snapshot sequence number see the right one.
package memtable

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/skiplist"
)

// Memtable is an in-memory write buffer. Set is safe for concurrent use
// (the engine's group-commit pipeline lets every committer apply its own
// batch in parallel); readers are lock-free.
//
// The writer-reservation counter coordinates memtable rotation: the commit
// leader reserves a writer slot for every batch it schedules onto this
// memtable, each applier releases its slot when done, and rotation waits
// for the count to drain before freezing the memtable, so no insert can
// land on a memtable that is being flushed.
type Memtable struct {
	list    *skiplist.Skiplist
	writers atomic.Int64

	// Range tombstones live outside the skiplist (the flush path writes
	// them into the sstable's dedicated range-del block, not the point
	// stream). The store is copy-on-write: DeleteRange rebuilds a fresh
	// fragmented List under rdMu and publishes it atomically, so readers —
	// including the zero-allocation point-read fast path — do one atomic
	// load and a binary search, with no locks and no allocation.
	rdMu    sync.Mutex
	rd      atomic.Pointer[rangedel.List]
	rdBytes atomic.Int64
}

// New returns an empty memtable.
func New() *Memtable {
	return &Memtable{list: skiplist.New(base.InternalCompare)}
}

// ReserveWriter registers an in-flight batch application. Called by the
// commit leader while it holds the commit lock, so a reservation can never
// race with rotation.
func (m *Memtable) ReserveWriter() { m.writers.Add(1) }

// WriterDone releases a reservation taken by ReserveWriter.
func (m *Memtable) WriterDone() { m.writers.Add(-1) }

// QuiesceWriters spins until every reserved writer has finished. Appliers
// do no IO, so the wait is short; the caller must hold the commit lock so
// no new reservations arrive.
func (m *Memtable) QuiesceWriters() {
	for m.writers.Load() > 0 {
		runtime.Gosched()
	}
}

// Set records a mutation of kind (KindSet or KindDelete) at seq. Key, trailer
// and value are copied into the skiplist's arena, where the internal key is
// composed in place: callers (the commit pipeline) own and may reuse their
// buffers — batches in particular are reusable after Apply — and a Set
// allocates nothing but, now and then, the arena's next chunk. Safe for
// concurrent use.
func (m *Memtable) Set(ukey []byte, seq base.SeqNum, kind base.Kind, value []byte) {
	var trailer [base.TrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:], base.MakeTrailer(seq, kind))
	m.list.Add(ukey, trailer[:], value)
}

// DeleteRange records a range tombstone over [start, end) at seq. Both
// keys are copied. Safe for concurrent use with readers and point Sets;
// concurrent DeleteRange calls serialize on an internal mutex.
func (m *Memtable) DeleteRange(start, end []byte, seq base.SeqNum) {
	if bytes.Compare(start, end) >= 0 {
		return
	}
	t := rangedel.Tombstone{
		Start: append([]byte(nil), start...),
		End:   append([]byte(nil), end...),
		Seq:   seq,
	}
	m.rdMu.Lock()
	// WithTombstone splices into the previous list's fragments instead of
	// re-fragmenting from scratch, keeping each DeleteRange linear in the
	// memtable's resident tombstone count.
	m.rd.Store(m.rd.Load().WithTombstone(t))
	m.rdMu.Unlock()
	m.rdBytes.Add(int64(len(start) + len(end) + base.TrailerLen))
}

// CoverSeq returns the newest range tombstone covering ukey visible at
// seq, or 0. Lock- and allocation-free.
func (m *Memtable) CoverSeq(ukey []byte, seq base.SeqNum) base.SeqNum {
	return m.rd.Load().CoverSeq(ukey, seq)
}

// RangeDels returns the memtable's range tombstones (the flush path writes
// them into the output table's range-del block). Nil when none exist. The
// returned slice is an immutable snapshot.
func (m *Memtable) RangeDels() []rangedel.Tombstone {
	return m.rd.Load().Raw()
}

// Get returns the newest entry for ukey visible at seq. found reports
// whether any version exists; if found and kind is KindDelete the key is
// deleted at this snapshot. Range tombstones are not consulted — callers
// compare the returned sequence number against CoverSeq. The search-key
// construction allocates; hot paths build the key once into a reusable
// buffer and call GetSearch.
func (m *Memtable) Get(ukey []byte, seq base.SeqNum) (value []byte, kind base.Kind, found bool) {
	search := base.MakeSearchKey(make([]byte, 0, len(ukey)+base.TrailerLen), ukey, seq)
	value, _, kind, found = m.GetSearch(search)
	return value, kind, found
}

// GetSearch is Get with a caller-built search key (base.MakeSearchKey into
// a reusable buffer): the allocation-free point-read path. The returned
// value aliases the memtable's internal storage; seq is the entry's
// sequence number, for visibility comparison against range tombstones.
func (m *Memtable) GetSearch(search []byte) (value []byte, seq base.SeqNum, kind base.Kind, found bool) {
	k, v, ok := m.list.FindGE(search)
	if !ok {
		return nil, 0, 0, false
	}
	gotUkey, gotSeq, gotKind, ok := base.DecodeInternalKey(k)
	if !ok || !bytes.Equal(gotUkey, base.UserKey(search)) {
		return nil, 0, 0, false
	}
	return v, gotSeq, gotKind, true
}

// ApproxSize returns what the memtable charges for its contents: key and
// value bytes plus a fixed overhead an entry. It is the number the engine
// compares with MemtableSize; the arena's footprint is somewhat below it.
func (m *Memtable) ApproxSize() int64 { return m.list.ApproxSize() + m.rdBytes.Load() }

// Len returns the number of point entries.
func (m *Memtable) Len() int { return m.list.Len() }

// Empty reports whether the memtable holds no point entries and no range
// tombstones (nothing to flush).
func (m *Memtable) Empty() bool { return m.list.Len() == 0 && m.rd.Load().Empty() }

// NewIter returns an iterator over the memtable's internal keys.
func (m *Memtable) NewIter() iterator.Iterator {
	it := &Iter{}
	m.InitIter(it)
	return it
}

// InitIter readies a caller-allocated Iter over the memtable's internal
// keys. Pooled iterator stacks embed Iter by value and re-arm it here, so
// opening the memtable leg of a scan allocates nothing.
func (m *Memtable) InitIter(it *Iter) { m.list.InitIter(&it.it) }

// Iter iterates over a memtable's internal keys. The zero value is not
// usable; obtain one from NewIter or arm it with InitIter.
type Iter struct {
	it skiplist.Iter
}

func (i *Iter) SeekGE(target []byte) { i.it.SeekGE(target) }
func (i *Iter) SeekLT(target []byte) { i.it.SeekLT(target) }
func (i *Iter) First()               { i.it.First() }
func (i *Iter) Last()                { i.it.Last() }
func (i *Iter) Next()                { i.it.Next() }
func (i *Iter) Prev()                { i.it.Prev() }
func (i *Iter) Valid() bool          { return i.it.Valid() }
func (i *Iter) Key() []byte          { return i.it.Key() }
func (i *Iter) Value() []byte        { return i.it.Value() }
func (i *Iter) Error() error         { return nil }
func (i *Iter) Close() error         { return nil }

// Package pebblesdb is a key-value store built on Fragmented Log-Structured
// Merge trees (FLSM), reproducing "PebblesDB: Building Key-Value Stores
// using Fragmented Log-Structured Merge Trees" (SOSP 2017). FLSM organizes
// each level's sstables under guards — skip-list-inspired partitions of the
// key space — and compacts by fragmenting and appending rather than
// rewriting, which cuts write amplification by 2-3x versus leveled LSMs.
//
// The same package also hosts the leveled-LSM baselines the paper compares
// against (LevelDB, HyperLevelDB and RocksDB presets of the EngineLeveled
// tree) so that every experiment in the paper's evaluation can be
// regenerated; see DESIGN.md and EXPERIMENTS.md.
//
// Basic usage:
//
//	db, err := pebblesdb.Open("demo", pebblesdb.PresetPebblesDB.Options())
//	if err != nil { ... }
//	defer db.Close()
//	_ = db.Put([]byte("key"), []byte("value"))
//	v, ok, _ := db.Get([]byte("key"), nil)
//
// Reads and writes take per-operation options (nil selects the defaults):
// ReadOptions pin a Get to a Snapshot, WriteOptions control per-commit
// durability, and IterOptions bound an iterator and let it scan in either
// direction:
//
//	it, _ := db.NewIter(&pebblesdb.IterOptions{
//		LowerBound: []byte("user:"), UpperBound: []byte("user;"),
//	})
//	for it.Last(); it.Valid(); it.Prev() { ... }
//	_ = it.Close()
//
// DeleteRange removes a whole key range in O(1) writes — one range
// tombstone instead of a tombstone per key — which is the efficient way
// to expire a time window, drop a tenant's keyspace, or truncate a queue:
//
//	_ = db.DeleteRange([]byte("evt/0001/"), []byte("evt/0002/"))
package pebblesdb

import (
	"errors"
	"io"
	"sync/atomic"

	"pebblesdb/internal/batch"
	"pebblesdb/internal/engine"
	"pebblesdb/internal/vfs"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("pebblesdb: database is closed")

// ErrReadOnly marks writes rejected while the store is degraded to
// read-only mode by a background IO error. Match with errors.Is(err,
// ErrReadOnly); errors.Unwrap exposes the original failure. Reads keep
// serving in this state. If the cause was transient (for example the disk
// filled up and was cleared), Resume restores writability; corruption is
// permanent and requires operator intervention.
var ErrReadOnly = engine.ErrReadOnly

// DB is a handle to an open store. All methods are safe for concurrent
// use.
type DB struct {
	eng       *engine.Engine
	fs        *vfs.CountingFS
	userBytes atomic.Int64
	closed    atomic.Bool
}

// Open opens (creating if necessary) the store in dir. A nil opts selects
// PresetPebblesDB with an in-memory filesystem disabled (OS-backed).
func Open(dir string, opts *Options) (*DB, error) {
	if opts == nil {
		opts = PresetPebblesDB.Options()
	}
	// The engine fills in defaults and tees its flight recorder into the
	// listener; it does so on its own copy, so opts can open another store.
	cfg := opts.Config
	counting := vfs.NewCounting(opts.filesystem())
	eng, err := engine.Open(&cfg, counting, dir, opts.Engine)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng, fs: counting}, nil
}

// Put stores key -> value, replacing any existing value.
func (d *DB) Put(key, value []byte) error {
	if d.closed.Load() {
		return ErrClosed
	}
	d.userBytes.Add(int64(len(key) + len(value)))
	return d.eng.Set(key, value, false)
}

// Delete removes key. Deleting an absent key is not an error.
func (d *DB) Delete(key []byte) error {
	if d.closed.Load() {
		return ErrClosed
	}
	d.userBytes.Add(int64(len(key)))
	return d.eng.Delete(key, false)
}

// DeleteRange removes every key in [start, end) in O(1) writes: a single
// range tombstone is logged and flushed instead of one tombstone per key,
// so dropping a time window, a tenant's keyspace or a queue prefix costs
// the same regardless of how many keys it covers. The deletion is visible
// to Get, iterators and new snapshots immediately; snapshots taken before
// the call still see the old keys. Deleting an empty or inverted range is
// a no-op.
func (d *DB) DeleteRange(start, end []byte) error {
	if d.closed.Load() {
		return ErrClosed
	}
	d.userBytes.Add(int64(len(start) + len(end)))
	return d.eng.DeleteRange(start, end, false)
}

// Get returns the value of key. found is false when the key is absent or
// deleted. A nil opts reads the latest committed state; opts.Snapshot pins
// the read to a point-in-time view. The caller owns the returned slice: it
// is written into opts.Buf when one is supplied with sufficient capacity
// (making a steady-state Get allocation-free), and freshly allocated
// otherwise.
func (d *DB) Get(key []byte, opts *ReadOptions) (value []byte, found bool, err error) {
	var buf []byte
	if opts != nil {
		buf = opts.Buf
	}
	return d.GetTo(key, buf, opts)
}

// GetTo is Get with an explicit destination buffer: the value is appended
// to dst[:0] and returned (dst may be nil). Reusing a buffer with enough
// capacity across calls makes point reads allocation-free — the harness's
// ReadRandom loop and other hot read paths use this.
func (d *DB) GetTo(key, dst []byte, opts *ReadOptions) (value []byte, found bool, err error) {
	if d.closed.Load() {
		return nil, false, ErrClosed
	}
	var snap *engine.Snapshot
	if opts != nil && opts.Snapshot != nil {
		snap = opts.Snapshot.s
	}
	return d.eng.Get(key, snap, dst)
}

// GetAt is Get against a snapshot.
//
// Deprecated: use Get(key, &ReadOptions{Snapshot: snap}).
func (d *DB) GetAt(key []byte, snap *Snapshot) (value []byte, found bool, err error) {
	return d.Get(key, &ReadOptions{Snapshot: snap})
}

// Apply atomically commits a batch of writes. A nil opts commits without
// an fsync; opts.Sync makes this commit durable against machine crashes
// before Apply returns. Concurrent Apply calls are group-committed:
// simultaneous batches share one WAL write and — for Sync commits — one
// amortized fsync, so per-commit durability costs far less under
// concurrency than commits × fsync latency. Sync semantics are
// unchanged: when Apply returns, the commit is durable.
func (d *DB) Apply(b *Batch, opts *WriteOptions) error {
	if d.closed.Load() {
		return ErrClosed
	}
	d.userBytes.Add(int64(b.userBytes))
	return d.eng.Apply(b.b, opts != nil && opts.Sync)
}

// ApplySync commits a batch and syncs the WAL before returning.
//
// Deprecated: use Apply(b, pebblesdb.Sync).
func (d *DB) ApplySync(b *Batch) error {
	return d.Apply(b, Sync)
}

// Snapshot pins a point-in-time view of the store.
type Snapshot struct{ s *engine.Snapshot }

// NewSnapshot captures the current state; release it with Close.
func (d *DB) NewSnapshot() *Snapshot { return &Snapshot{s: d.eng.NewSnapshot()} }

// Close releases the snapshot.
func (s *Snapshot) Close() { s.s.Close() }

// Flush persists the current memtable to level 0 and waits for it.
func (d *DB) Flush() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.eng.Flush()
}

// ReadOnly reports whether the store is degraded to read-only mode by a
// background error.
func (d *DB) ReadOnly() bool { return d.eng.ReadOnly() }

// Resume clears a transient background error and restores writability: the
// store rotates to a fresh WAL, re-runs the interrupted flush, and resumes
// background compaction. Returns nil when the store was already healthy and
// a wrapped ErrReadOnly when the degradation is permanent (corruption).
// Call after the underlying condition clears — e.g. disk space was freed.
func (d *DB) Resume() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.eng.Resume()
}

// CompactAll flushes and drives compaction until the store is quiescent
// (the paper's "fully compacted" read benchmarks).
func (d *DB) CompactAll() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.eng.CompactAll()
}

// WaitIdle blocks until background flushes and compactions are drained.
func (d *DB) WaitIdle() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.eng.WaitIdle()
}

// Dump writes a human-readable description of the store layout (levels,
// guards, sstables) to w — the view in the paper's Figure 3.1.
func (d *DB) Dump(w io.Writer) { d.eng.Dump(w) }

// CheckInvariants verifies the structure Dump shows — the groups of every
// level ordered and disjoint, every table inside its group and in age order
// there, the compaction claims consistent — and names the first invariant
// found broken. It reads every table of every group of more than one: a
// check for tests and tools (cmd/flsmdump -check), not for a serving path.
func (d *DB) CheckInvariants() error { return d.eng.CheckInvariants() }

// RecentEvents returns the store's flight recorder contents: the most
// recent background events (flushes, compactions, rotations, stalls,
// errors), oldest first. The recorder is always on — no EventListener
// needs to be configured — and is automatically dumped through the logger
// when the store degrades to read-only, so the activity leading up to a
// failure is preserved.
func (d *DB) RecentEvents() []Event { return d.eng.RecentEvents() }

// Close shuts the store down, waiting for background work. The WAL
// preserves any unflushed writes for the next Open.
func (d *DB) Close() error {
	if d.closed.Swap(true) {
		return ErrClosed
	}
	return d.eng.Close()
}

// Batch accumulates writes for atomic application via Apply.
type Batch struct {
	b         *batch.Batch
	userBytes int
}

// NewBatch returns an empty batch.
func (d *DB) NewBatch() *Batch { return &Batch{b: batch.New()} }

// Set queues a put of key to value.
func (b *Batch) Set(key, value []byte) {
	b.userBytes += len(key) + len(value)
	b.b.Set(key, value)
}

// Delete queues a tombstone for key.
func (b *Batch) Delete(key []byte) {
	b.userBytes += len(key)
	b.b.Delete(key)
}

// DeleteRange queues a range tombstone deleting every key in [start, end).
func (b *Batch) DeleteRange(start, end []byte) {
	b.userBytes += len(start) + len(end)
	b.b.DeleteRange(start, end)
}

// Count returns the number of queued writes.
func (b *Batch) Count() int { return int(b.b.Count()) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.userBytes = 0
	b.b.Reset()
}

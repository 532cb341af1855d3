package engine

import (
	"bytes"
	"sync"
	"sync/atomic"

	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/treebase"
)

// Get returns the value of key, or found=false if absent or deleted. A nil
// snapshot reads the latest committed state. The value is appended to
// dst[:0] and returned: passing a buffer with sufficient capacity makes the
// whole read allocation-free; passing nil allocates exactly the value copy.
// The caller owns the returned slice.
func (e *Engine) Get(key []byte, snap *Snapshot, dst []byte) (value []byte, found bool, err error) {
	atomic.AddInt64(&e.stats.Gets, 1)
	seq := base.SeqNum(e.seq.Load())
	if snap != nil {
		seq = snap.seq
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, false, ErrClosed
	}
	mem, imm := e.mem, e.imm
	e.mu.Unlock()

	// The pooled scratch (search-key buffer, block cursors) makes the
	// steady-state Get O(1) allocations: the only unavoidable one is the
	// value copy into dst when the caller supplies no buffer.
	s := sstable.AcquireGetScratch()
	defer e.releaseGetScratch(s)

	s.SearchKey = base.MakeSearchKey(s.SearchKey[:0], key, seq)
	// Range tombstones fold into the descent: each memtable reports the
	// newest visible tombstone covering the key alongside its newest point
	// entry, and whichever has the higher sequence number decides. Sequence
	// numbers only decrease down the stack (mem > imm > tree), so a
	// memtable-level tombstone with no newer point short-circuits the whole
	// read — a covered key returns not-found without touching the tree and
	// without allocating.
	cov := mem.CoverSeq(key, seq)
	if v, eseq, kind, ok := mem.GetSearch(s.SearchKey); ok {
		if kind != base.KindSet || cov > eseq {
			return nil, false, nil
		}
		return append(dst[:0], v...), true, nil
	}
	if cov > 0 {
		return nil, false, nil
	}
	if imm != nil {
		cov = imm.CoverSeq(key, seq)
		if v, eseq, kind, ok := imm.GetSearch(s.SearchKey); ok {
			if kind != base.KindSet || cov > eseq {
				return nil, false, nil
			}
			return append(dst[:0], v...), true, nil
		}
		if cov > 0 {
			return nil, false, nil
		}
	}
	// Nil-snapshot reads hand the tree the live sequence counter instead of
	// the frozen seq: the tree pins its version first, then re-resolves the
	// read sequence, closing the window where a concurrent compaction
	// collapses every version <= seq into a successor that seq cannot see.
	// (Memtables never drop versions, so probing them at the earlier seq
	// above is safe; registered snapshots are protected by
	// SmallestSnapshot and keep their fixed seq.)
	var latest *atomic.Uint64
	if snap == nil {
		latest = &e.seq
	}
	v, found, err := e.tree.Get(key, seq, latest, s)
	if err != nil || !found {
		return nil, false, err
	}
	return append(dst[:0], v...), true, nil
}

// releaseGetScratch folds the scratch's read-path counters into the
// engine's metrics and returns it to the shared pool.
func (e *Engine) releaseGetScratch(s *sstable.GetScratch) {
	st := &s.Stats
	if st.TablesProbed != 0 {
		atomic.AddInt64(&e.stats.GetTablesProbed, st.TablesProbed)
	}
	if st.BloomNegatives != 0 {
		atomic.AddInt64(&e.stats.GetBloomNegatives, st.BloomNegatives)
	}
	if st.BloomFalsePositives != 0 {
		atomic.AddInt64(&e.stats.GetBloomFalsePositives, st.BloomFalsePositives)
	}
	if st.BlockHits != 0 {
		atomic.AddInt64(&e.stats.GetBlockCacheHits, st.BlockHits)
	}
	if st.BlockMisses != 0 {
		atomic.AddInt64(&e.stats.GetBlockCacheMisses, st.BlockMisses)
	}
	sstable.ReleaseGetScratch(s)
}

// IterOptions configures an engine iterator.
type IterOptions struct {
	// Lower is the inclusive lower user-key bound; nil = unbounded.
	Lower []byte
	// Upper is the exclusive upper user-key bound; nil = unbounded.
	Upper []byte
	// Prefix restricts the iterator to keys starting with these bytes. It
	// implies bounds [Prefix, PrefixSuccessor(Prefix)) — intersected with
	// Lower/Upper — and additionally lets the trees skip sstables whose
	// prefix bloom filter (built at PrefixBloomLength) rules the prefix
	// out before any data-block IO.
	Prefix []byte
	// Snapshot pins the read sequence; nil observes the latest committed
	// state as of iterator creation.
	Snapshot *Snapshot
}

// Iter is the user-facing iterator: it yields live user keys in key order,
// forward or backward, collapsing versions and hiding tombstones at the
// read sequence, and never strays outside its bounds.
//
// Iters are pooled: Close returns the iterator (and its retained key,
// value, seek-key and bounds buffers, its kids slice, and the embedded
// merging iterator's heap) to a shared pool, so the steady state of a
// scan-heavy workload creates and positions iterators without allocating.
// Close must be called exactly once.
type Iter struct {
	e       *Engine
	merged  iterator.Merging
	readSeq base.SeqNum
	bounds  base.Bounds
	// rangeDels masks point entries covered by a visible range tombstone.
	// It aggregates every tombstone visible to the iterator — memtables
	// plus all in-bounds tables — at creation; nil when none exist (the
	// common case pays one nil check per entry).
	rangeDels *rangedel.List
	ukey      []byte
	value     []byte
	// valLoaded marks value as materialized. Forward iteration defers
	// merged.Value() until Value() is called: key-only scans never touch
	// the value bytes.
	valLoaded bool
	valBuf    []byte
	prevBuf   []byte
	// seekBuf holds the internal search key built by SeekGE/SeekLT/Prev;
	// skipBuf holds findNext's dead-user-key run tracker. Both reused
	// across seeks.
	seekBuf []byte
	skipBuf []byte
	// lowerBuf/upperBuf/prefixBuf back bounds and prefix copies (the
	// iterator outlives the caller's buffers).
	lowerBuf  []byte
	upperBuf  []byte
	prefixBuf []byte
	prefix    []byte
	// kids is the merged iterator's child list: memtable legs (backed by
	// memIters, by value) followed by the tree's iterators.
	kids     []iterator.Iterator
	memIters [2]memtable.Iter
	// state keeps the tables of the tree's iterators on disk until Close.
	state *treebase.State
	stats treebase.IterStats
	// dir is +1 while iterating forward (merged sits on the entry backing
	// ukey/value) and -1 while iterating backward (merged sits just before
	// the current user key's entries, mirroring LevelDB's DBIter).
	dir    int
	valid  bool
	closed bool
	err    error
}

var iterPool = sync.Pool{New: func() interface{} { return &Iter{} }}

// NewIter returns an iterator over the store. Bounds (and the prefix, when
// set) prune guards and sstables before any table IO. The iterator holds
// the tree's state, and with it every table that state lists, however many
// compactions delete them meanwhile, and it blocks Close: Close it promptly.
func (e *Engine) NewIter(opts *IterOptions) (*Iter, error) {
	var o IterOptions
	if opts != nil {
		o = *opts
	}
	atomic.AddInt64(&e.stats.Iterators, 1)

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	mem, imm := e.mem, e.imm
	e.mu.Unlock()

	it := iterPool.Get().(*Iter)
	it.e = e
	it.rangeDels = nil
	it.valLoaded = false
	it.value = nil
	it.prefix = nil
	it.stats = treebase.IterStats{}
	it.dir = 1
	it.valid = false
	it.closed = false
	it.err = nil
	it.kids = it.kids[:0]

	// Resolve the effective bounds into retained buffers: the caller's
	// bounds intersected with the key range the prefix spans. The prefix
	// upper bound is exact — every key >= PrefixSuccessor(Prefix) lacks
	// the prefix, and when no successor exists (all-0xff) every key >=
	// Prefix has it, so the unbounded upper loses nothing.
	lower, upper := o.Lower, o.Upper
	upperIsSucc := false
	if o.Prefix != nil {
		it.prefixBuf = append(it.prefixBuf[:0], o.Prefix...)
		it.prefix = it.prefixBuf
		if lower == nil || bytes.Compare(it.prefix, lower) > 0 {
			lower = it.prefix
		}
		if succ := base.PrefixSuccessor(it.upperBuf[:0], it.prefix); succ != nil {
			it.upperBuf = succ
			if upper == nil || bytes.Compare(succ, upper) < 0 {
				upper = succ
				upperIsSucc = true
			}
		}
	}
	it.bounds = base.Bounds{}
	if lower != nil {
		it.lowerBuf = append(it.lowerBuf[:0], lower...)
		it.bounds.Lower = it.lowerBuf
	}
	if upper != nil {
		if !upperIsSucc {
			it.upperBuf = append(it.upperBuf[:0], upper...)
		}
		it.bounds.Upper = it.upperBuf
	}

	mem.InitIter(&it.memIters[0])
	it.kids = append(it.kids, &it.memIters[0])
	if imm != nil {
		imm.InitIter(&it.memIters[1])
		it.kids = append(it.kids, &it.memIters[1])
	}
	req := treebase.IterRequest{Bounds: it.bounds, Prefix: it.prefix, Stats: &it.stats}
	state, kids, treeRds, err := e.tree.NewIters(req, it.kids)
	if err != nil {
		it.kids = it.kids[:0]
		iterPool.Put(it)
		return nil, err
	}
	it.state, it.kids = state, kids

	// Choose the read sequence only after every source is pinned (same
	// collapse-safe ordering as Get): versions dropped by a concurrent
	// compaction are then always shadowed by a version this seq can see.
	seq := base.SeqNum(e.seq.Load())
	if o.Snapshot != nil {
		seq = o.Snapshot.seq
	}
	it.readSeq = seq

	// One visibility mask covers every source: a point entry is dead iff
	// some tombstone anywhere in the stack covers its key with a higher
	// sequence number at or below the read sequence, which is exactly what
	// the aggregated list answers. The memtables' copy-on-write lists are
	// snapshotted only after the read sequence: their point streams are
	// read live, so a tombstone committed up to that sequence must be in
	// the mask (the store only grows; newer tombstones are filtered by
	// CoverSeq's visibility check).
	rds := mem.RangeDels()
	if imm != nil {
		rds = append(rds[:len(rds):len(rds)], imm.RangeDels()...)
	}
	if len(rds) > 0 || len(treeRds) > 0 {
		rdList := rangedel.NewList(rds)
		for _, t := range treeRds {
			rdList.Add(t)
		}
		rdList.Build()
		it.rangeDels = rdList
	}
	it.merged.Init(base.InternalCompare, it.kids)
	return it, nil
}

// SeekGE positions the iterator at the first live user key >= key (clamped
// to the lower bound).
func (it *Iter) SeekGE(key []byte) {
	if it.closed {
		return
	}
	if it.bounds.Lower != nil && bytes.Compare(key, it.bounds.Lower) < 0 {
		key = it.bounds.Lower
	}
	it.seekBuf = base.MakeSearchKey(it.seekBuf[:0], key, it.readSeq)
	search := it.seekBuf
	it.dir = 1
	it.merged.SeekGE(search)
	it.findNext(nil)
	it.checkUpper()
}

// SeekLT positions the iterator at the last live user key < key (clamped
// to the upper bound).
func (it *Iter) SeekLT(key []byte) {
	if it.closed {
		return
	}
	if it.bounds.Upper != nil && bytes.Compare(key, it.bounds.Upper) > 0 {
		key = it.bounds.Upper
	}
	// A search key at MaxSeqNum sorts before every entry of key, so
	// SeekLT lands on the last entry of a strictly smaller user key.
	it.seekBuf = base.MakeSearchKey(it.seekBuf[:0], key, base.MaxSeqNum)
	search := it.seekBuf
	it.dir = -1
	it.merged.SeekLT(search)
	it.findPrev()
	it.checkLower()
}

// First positions the iterator at the smallest live user key within
// bounds.
func (it *Iter) First() {
	if it.closed {
		return
	}
	if it.bounds.Lower != nil {
		it.SeekGE(it.bounds.Lower)
		return
	}
	it.dir = 1
	it.merged.First()
	it.findNext(nil)
	it.checkUpper()
}

// Last positions the iterator at the largest live user key within bounds.
func (it *Iter) Last() {
	if it.closed {
		return
	}
	if it.bounds.Upper != nil {
		it.SeekLT(it.bounds.Upper)
		return
	}
	it.dir = -1
	it.merged.Last()
	it.findPrev()
	it.checkLower()
}

// Next advances to the next live user key.
func (it *Iter) Next() {
	if it.closed || !it.valid {
		return
	}
	it.prevBuf = append(it.prevBuf[:0], it.ukey...)
	prev := it.prevBuf
	if it.dir < 0 {
		// merged sits just before the current key's entries; step onto
		// them and let findNext skip the rest of the run.
		if !it.merged.Valid() {
			it.merged.First()
		} else {
			it.merged.Next()
		}
		it.dir = 1
	} else {
		it.merged.Next()
	}
	it.findNext(prev)
	it.checkUpper()
}

// Prev moves back to the previous live user key.
func (it *Iter) Prev() {
	if it.closed || !it.valid {
		return
	}
	if it.dir > 0 {
		// merged sits on the current entry. One reseek to the last entry
		// of the previous user key hops over the rest of the current
		// key's run — including newer-than-snapshot versions, which sort
		// before it — the same construction SeekLT uses.
		it.seekBuf = base.MakeSearchKey(it.seekBuf[:0], it.ukey, base.MaxSeqNum)
		it.merged.SeekLT(it.seekBuf)
		it.dir = -1
	}
	it.findPrev()
	it.checkLower()
}

// findNext scans the merged stream forward for the newest visible version
// of the next user key after skipUkey, skipping invisible sequence
// numbers, shadowed versions and tombstones.
func (it *Iter) findNext(skipUkey []byte) {
	it.valid = false
	for it.merged.Valid() {
		ukey, seq, kind, ok := base.DecodeInternalKey(it.merged.Key())
		if !ok {
			it.merged.Next()
			continue
		}
		if seq > it.readSeq {
			it.merged.Next()
			continue
		}
		if skipUkey != nil && string(ukey) == string(skipUkey) {
			it.merged.Next()
			continue
		}
		if kind == base.KindDelete ||
			(it.rangeDels != nil && it.rangeDels.CoverSeq(ukey, it.readSeq) > seq) {
			// Newest visible version is a tombstone, or a visible range
			// tombstone covers it: skip this user key entirely. The run
			// tracker lives in a retained buffer so tombstone-dense regions
			// don't allocate per dead key.
			it.skipBuf = append(it.skipBuf[:0], ukey...)
			skipUkey = it.skipBuf
			it.merged.Next()
			continue
		}
		it.ukey = append(it.ukey[:0], ukey...)
		// Defer merged.Value() to Value(): key-only consumers skip the
		// value materialization entirely.
		it.valLoaded = false
		it.valid = true
		return
	}
	if err := it.merged.Error(); err != nil && it.err == nil {
		it.err = err
	}
}

// findPrev scans the merged stream backward for the newest visible version
// of the largest user key at or before the current position. Reverse order
// yields a key's versions oldest-first, so each visible version overwrites
// the saved candidate and the newest visible one wins; a tombstone clears
// the candidate and the scan moves on to smaller keys. The scan stops on
// the first entry of a yet-smaller key, leaving merged "just before" the
// result's run, which is what Prev and Next-after-Prev rely on.
func (it *Iter) findPrev() {
	it.valid = false
	kind := base.KindDelete // nothing saved yet
	for it.merged.Valid() {
		ukey, seq, k, ok := base.DecodeInternalKey(it.merged.Key())
		if ok && seq <= it.readSeq {
			if it.rangeDels != nil && k != base.KindDelete &&
				it.rangeDels.CoverSeq(ukey, it.readSeq) > seq {
				// A visible range tombstone kills this version; for the
				// candidate tracking below that is exactly a point delete.
				k = base.KindDelete
			}
			if kind != base.KindDelete && bytes.Compare(ukey, it.ukey) < 0 {
				// Entered the run of a smaller user key with a live
				// candidate saved: the candidate is the answer.
				it.valid = true
				return
			}
			kind = k
			if k != base.KindDelete {
				it.ukey = append(it.ukey[:0], ukey...)
				// Copy: merged keeps moving, so the current value's backing
				// buffer won't stay put. valBuf never aliases block data.
				it.valBuf = append(it.valBuf[:0], it.merged.Value()...)
				it.value = it.valBuf
				it.valLoaded = true
			}
		}
		it.merged.Prev()
	}
	if err := it.merged.Error(); err != nil && it.err == nil {
		it.err = err
	}
	if kind != base.KindDelete {
		it.valid = true
	}
}

func (it *Iter) checkUpper() {
	if it.valid && it.bounds.Upper != nil && bytes.Compare(it.ukey, it.bounds.Upper) >= 0 {
		it.valid = false
	}
}

func (it *Iter) checkLower() {
	if it.valid && it.bounds.Lower != nil && bytes.Compare(it.ukey, it.bounds.Lower) < 0 {
		it.valid = false
	}
}

// Valid reports whether the iterator is positioned on a live entry.
func (it *Iter) Valid() bool { return it.valid && it.err == nil }

// Key returns the current user key (valid until the next move).
func (it *Iter) Key() []byte { return it.ukey }

// Value returns the current value (valid until the next move). Forward
// iteration materializes the value lazily, on the first call per entry.
func (it *Iter) Value() []byte {
	if !it.valLoaded {
		if !it.valid {
			return nil
		}
		it.value = it.merged.Value()
		it.valLoaded = true
	}
	return it.value
}

// Error returns the first error the iterator encountered.
func (it *Iter) Error() error { return it.err }

// Close releases the iterator's resources — the tree's state last, which
// lets the tables only it kept go — folds its scan counters into the
// engine's metrics, and returns the iterator to the pool. It must be called
// exactly once: a second Close could tear down the iterator's next user.
func (it *Iter) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	it.valid = false
	err := it.merged.Close()
	if st := &it.stats; st.TablesOpened != 0 || st.PrefixSkips != 0 {
		atomic.AddInt64(&it.e.stats.IterTablesOpened, st.TablesOpened)
		atomic.AddInt64(&it.e.stats.IterPrefixSkips, st.PrefixSkips)
		atomic.AddInt64(&it.e.stats.IterSeekFanOuts, st.SeekFanOuts)
	}
	it.state.Release()
	if it.err == nil {
		it.err = err
	}
	finalErr := it.err
	it.e, it.state = nil, nil
	it.rangeDels = nil
	it.value = nil
	it.kids = it.kids[:0]
	iterPool.Put(it)
	return finalErr
}

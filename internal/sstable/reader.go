package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"pebblesdb/internal/base"
	"pebblesdb/internal/block"
	"pebblesdb/internal/bloom"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/crc"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/rangedel"
)

// retiredMagics are the footer magics of the formats builds before PR 14
// wrote (4-byte crc-only block trailer; 40-, 48- and 64-byte footers). Open
// knows them only to say which format it is refusing.
var retiredMagics = map[uint64]int{
	0x8773537fdb4eac2e: 1,
	0xf09f95ccdb4eac2e: 2,
	0xf09f97bbdb4eac2e: 3,
}

// ErrCorrupt indicates a structurally invalid table or checksum failure.
var ErrCorrupt = errors.New("sstable: corrupt table")

// errShortKey reports an entry whose key cannot hold the 8-byte trailer.
// The cursors refuse it because everything above them splits keys without
// looking (base.UserKey panics).
var errShortKey = fmt.Errorf("%w: entry key shorter than its trailer", ErrCorrupt)

// corrupt relabels a block-level decoding error as ErrCorrupt, the one
// sentinel callers of this package test for. Nil stays nil.
func corrupt(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}

// CodecStats aggregates the read-side codec work across every Reader that
// shares it (one instance per table cache). Cache hits on decompressed
// blocks bypass the codec entirely and are invisible here — that is the
// point of caching decompressed payloads.
type CodecStats struct {
	// BlocksDecompressed counts compressed blocks inflated on read.
	BlocksDecompressed atomic.Int64
	// BytesDecompressed is decompressed payload bytes produced.
	BytesDecompressed atomic.Int64
	// DecompressNanos is time spent inside the codec's decoder.
	DecompressNanos atomic.Int64
}

// ReadaheadSize is the chunk size prefetched by sequential iterators
// (compaction inputs, full-table scans): one ReadAt per ~256KiB of table
// instead of one per block.
const ReadaheadSize = 256 << 10

// File is what a Reader needs of its table file: positioned reads, and a
// Close once the last reference is gone. The table cache passes one that
// holds an open handle only while a read needs it.
type File interface {
	io.ReaderAt
	io.Closer
}

// Reader provides random access to an sstable. The index block and bloom
// filter stay resident for the Reader's lifetime (the paper stores guards
// and bloom filters in memory, §3.7); data blocks go through the optional
// shared block cache, which stores the *decompressed* payload so cache
// hits never pay the codec.
type Reader struct {
	f       File
	fileNum base.FileNum
	size    int64
	index   []byte
	filter  bloom.Filter
	blocks  *cache.Cache // shared block cache; may be nil
	codec   *CodecStats  // shared decompression counters; may be nil

	// prefixFilter/prefixLen hold the resident prefix bloom filter: a
	// filter over the distinct first-prefixLen-byte user-key prefixes in the
	// table. nil/0 for tables without one.
	prefixFilter bloom.Filter
	prefixLen    int

	// rangeDels is the resident, pre-built tombstone list decoded from the
	// range-del block; nil for tables without tombstones. Like the index
	// and filter it stays in memory for the Reader's lifetime, so visibility
	// checks on the point-read path are a lock-free binary search.
	rangeDels *rangedel.List

	// refs counts users of the Reader: the table cache holds one
	// reference, and every caller of tablecache.Find holds another until
	// it calls Unref. The file closes when the count reaches zero, so
	// dropping a table from the cache never yanks it out from under a
	// reader.
	refs atomic.Int32
}

// Ref acquires a reference; the caller already holds one.
func (r *Reader) Ref() { r.refs.Add(1) }

// TryRef acquires a reference unless the last one is already gone. It is
// for a holder of the bare pointer (the table cache's lock-free lookup),
// which may find the Reader after a concurrent Evict released it.
func (r *Reader) TryRef() bool {
	for {
		n := r.refs.Load()
		if n == 0 {
			return false
		}
		if r.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Unref releases a reference, closing the file on the last one.
func (r *Reader) Unref() error {
	if r.refs.Add(-1) == 0 {
		return r.f.Close()
	}
	return nil
}

// Open reads the table's footer, index and filter. The Reader owns f and
// closes it on Close. codec, when non-nil, receives decompression counters
// shared across readers.
func Open(f File, size int64, fileNum base.FileNum, blockCache *cache.Cache, codec *CodecStats) (*Reader, error) {
	if size < 8 {
		return nil, fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	// The magic in the last 8 bytes is judged first, so a table of a retired
	// format, whose footer is shorter, is named rather than called short.
	var footer [footerLen]byte
	n := min(size, footerLen)
	if err := fullReadAt(f, footer[footerLen-n:], size-n); err != nil {
		return nil, err
	}
	if magic := binary.LittleEndian.Uint64(footer[footerLen-8:]); magic != tableMagic {
		if v, ok := retiredMagics[magic]; ok {
			return nil, fmt.Errorf("%w: table format v%d, written by a build before PR 14, is no longer read", ErrCorrupt, v)
		}
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if size < footerLen {
		return nil, fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	if footer[64] != formatVersion {
		return nil, fmt.Errorf("%w: unknown format version %d", ErrCorrupt, footer[64])
	}
	r := &Reader{f: f, fileNum: fileNum, size: size, blocks: blockCache, codec: codec}
	r.refs.Store(1)
	var handles [4]blockHandle
	for i := range handles {
		handles[i] = blockHandle{binary.LittleEndian.Uint64(footer[16*i:]), binary.LittleEndian.Uint64(footer[16*i+8:])}
	}
	filterH, indexH, rangeDelH, prefixH := handles[0], handles[1], handles[2], handles[3]

	idx, err := r.readMetaBlock(indexH)
	if err != nil {
		return nil, err
	}
	// Validate the index's restart array once here; the per-Get probe and
	// the table iterator then use InitValidated and skip the O(entries)
	// scan (index blocks restart on every entry).
	var check block.Iter
	if err := check.Init(idx, base.InternalCompare); err != nil {
		return nil, fmt.Errorf("%w: bad index block", ErrCorrupt)
	}
	r.index = idx
	if filterH.length > 0 {
		flt, err := r.readMetaBlock(filterH)
		if err != nil {
			return nil, err
		}
		r.filter = bloom.Filter(flt)
	}
	if prefixH.length > 0 {
		blk, err := r.readMetaBlock(prefixH)
		if err != nil {
			return nil, err
		}
		p, pf, err := DecodePrefixFilter(blk)
		if err != nil {
			return nil, err
		}
		r.prefixLen, r.prefixFilter = p, pf
	}
	if rangeDelH.length > 0 {
		payload, err := r.readMetaBlock(rangeDelH)
		if err != nil {
			return nil, err
		}
		var it block.Iter
		if err := it.Init(payload, base.InternalCompare); err != nil {
			return nil, fmt.Errorf("%w: bad range-del block", ErrCorrupt)
		}
		l := &rangedel.List{}
		for it.First(); it.Valid(); it.Next() {
			start, seq, kind, ok := base.DecodeInternalKey(it.Key())
			if !ok || kind != base.KindRangeDelete {
				return nil, fmt.Errorf("%w: bad range-del entry", ErrCorrupt)
			}
			l.Add(rangedel.Tombstone{
				Start: append([]byte(nil), start...),
				End:   append([]byte(nil), it.Value()...),
				Seq:   seq,
			})
		}
		if err := it.Error(); err != nil {
			return nil, corrupt(err)
		}
		l.Build()
		r.rangeDels = l
	}
	return r, nil
}

// RangeDels returns the table's resident range-tombstone list, or nil when
// the table has none. The list is immutable and safe for concurrent use.
func (r *Reader) RangeDels() *rangedel.List { return r.rangeDels }

// readBufPool holds the buffers blocks are read into. A block's stored
// bytes are dead once it is inflated or copied out, so they never need a
// buffer of their own.
var readBufPool = sync.Pool{New: func() any { return new([]byte) }}

// readStored reads the block at h into *bp, growing it as needed, verifies
// the checksum and returns the stored payload, which aliases *bp, and its
// type. ra, when non-nil, supplies the bytes through a readahead buffer
// instead of a per-block ReadAt.
func (r *Reader) readStored(h blockHandle, ra *readahead, bp *[]byte) (stored []byte, typ byte, err error) {
	// Compared without adding: h is disk bytes no checksum covers (a footer
	// or an index entry), and offset+length can wrap past zero.
	if room := uint64(r.size) - blockTrailerLen; h.length > room || h.offset > room-h.length {
		return nil, 0, fmt.Errorf("%w: block handle out of range", ErrCorrupt)
	}
	if n := int(h.length + blockTrailerLen); cap(*bp) < n {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:h.length+blockTrailerLen]
	if ra != nil {
		if err := ra.readAt(buf, int64(h.offset)); err != nil {
			return nil, 0, err
		}
	} else if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
		return nil, 0, err
	}
	stored = buf[:h.length]
	want := binary.LittleEndian.Uint32(buf[h.length+1:])
	if crc.ValueExtended(stored, buf[h.length:h.length+1]) != want {
		return nil, 0, fmt.Errorf("%w: block checksum mismatch at offset %d", ErrCorrupt, h.offset)
	}
	return stored, buf[h.length], nil
}

// inflate turns a block's stored bytes into its payload, in dst when that
// has the room.
func (r *Reader) inflate(dst, stored []byte, typ byte, h blockHandle) ([]byte, error) {
	switch typ {
	case blockTypeNone:
		return append(dst, stored...), nil
	case blockTypeSnappy:
		start := obs.Monotonic()
		decoded, err := compress.Decode(dst, stored)
		if err != nil {
			return nil, fmt.Errorf("%w: snappy block at offset %d: %v", ErrCorrupt, h.offset, err)
		}
		if r.codec != nil {
			r.codec.BlocksDecompressed.Add(1)
			r.codec.BytesDecompressed.Add(int64(len(decoded)))
			r.codec.DecompressNanos.Add(obs.Monotonic() - start)
		}
		return decoded, nil
	default:
		return nil, fmt.Errorf("%w: unknown block type %d at offset %d", ErrCorrupt, typ, h.offset)
	}
}

// readMetaBlock reads one of the blocks Open keeps for the Reader's
// lifetime. They are plain allocations of their exact size and have no
// holder count: nothing ever gives them back, and drawn from the pooled
// size classes the index and filter of a small table would each sit in
// memory at their class's size for good.
func (r *Reader) readMetaBlock(h blockHandle) ([]byte, error) {
	bp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bp)
	stored, typ, err := r.readStored(h, nil, bp)
	if err != nil {
		return nil, err
	}
	return r.inflate(nil, stored, typ, h)
}

// readBlockUncached reads, verifies and decompresses the data block at h,
// bypassing the cache, into a buffer drawn from the cache's pool. The
// caller holds the one reference to it. A block that fails to inflate
// leaves its buffer to the collector.
func (r *Reader) readBlockUncached(h blockHandle, ra *readahead) (*cache.Buf, error) {
	bp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bp)
	stored, typ, err := r.readStored(h, ra, bp)
	if err != nil {
		return nil, err
	}
	n := len(stored)
	if typ == blockTypeSnappy {
		if n, err = compress.DecodedLen(stored); err != nil {
			return nil, fmt.Errorf("%w: snappy block at offset %d: %v", ErrCorrupt, h.offset, err)
		}
	}
	b := cache.Alloc(n)
	if _, err := r.inflate(b.Bytes()[:0], stored, typ, h); err != nil {
		return nil, err
	}
	return b, nil
}

// readBlock returns the decompressed payload of the block at h with a
// reference the caller must release. Random reads (ra == nil) fill the
// shared cache, charging the decompressed size; sequential reads consult
// the cache but never populate it, so one-pass compaction scans cannot
// evict the read path's working set — their blocks go back to the pool as
// the scan leaves them. stats, when non-nil, receives the block-cache
// outcome (point-read metrics).
func (r *Reader) readBlock(h blockHandle, ra *readahead, stats *GetStats) (*cache.Buf, error) {
	key := cache.Key{File: uint64(r.fileNum), Off: h.offset}
	if r.blocks != nil {
		if b := r.blocks.Acquire(key); b != nil {
			if stats != nil {
				stats.BlockHits++
			}
			return b, nil
		}
	}
	if stats != nil {
		stats.BlockMisses++
	}
	b, err := r.readBlockUncached(h, ra)
	if err != nil {
		return nil, err
	}
	if r.blocks != nil && ra == nil {
		r.blocks.Insert(key, b, int64(len(b.Bytes())))
	}
	return b, nil
}

// readahead is the sequential-read buffer: a sliding ~256KiB window over
// the file served from a single ReadAt, refilled as the iterator walks
// forward. Reads outside the window (backward iteration after a reposition,
// oversized blocks) fall through untouched.
type readahead struct {
	f    io.ReaderAt
	size int64
	buf  []byte
	off  int64 // file offset of buf[0]
}

func (ra *readahead) readAt(p []byte, off int64) error {
	if off < ra.off || off+int64(len(p)) > ra.off+int64(len(ra.buf)) {
		if int64(len(p)) >= ReadaheadSize {
			// Block larger than the window: read it directly.
			return fullReadAt(ra.f, p, off)
		}
		want := int64(ReadaheadSize)
		if off+want > ra.size {
			want = ra.size - off
		}
		if want < int64(len(p)) {
			return fmt.Errorf("%w: read beyond file end", ErrCorrupt)
		}
		if cap(ra.buf) < int(want) {
			ra.buf = make([]byte, want)
		}
		ra.buf = ra.buf[:want]
		if err := fullReadAt(ra.f, ra.buf, off); err != nil {
			ra.buf = ra.buf[:0]
			return err
		}
		ra.off = off
	}
	copy(p, ra.buf[off-ra.off:])
	return nil
}

// fullReadAt is ReadAt tolerating the io.EOF that a read ending exactly at
// the file end may legally return alongside full data.
func fullReadAt(f io.ReaderAt, p []byte, off int64) error {
	n, err := f.ReadAt(p, off)
	if err == io.EOF && n == len(p) {
		return nil
	}
	return err
}

// MayContain consults the table's bloom filter for ukey. True when no
// filter is present.
func (r *Reader) MayContain(ukey []byte) bool { return r.MayContainHash(bloom.Hash(ukey)) }

// MayContainHash is MayContain for the user key whose bloom.Hash is h, which
// a Get computes once for all the tables it consults (GetScratch.KeyHash).
func (r *Reader) MayContainHash(h uint64) bool {
	if r.filter == nil {
		return true
	}
	return r.filter.MayContainHash(h)
}

// MayContainPrefix consults the table's prefix bloom filter: a
// false return guarantees no user key in the table starts with pfx. True
// when the table has no prefix filter or was built for a different prefix
// length — the filter only answers for exactly the length it was built over.
func (r *Reader) MayContainPrefix(pfx []byte) bool {
	if r.prefixFilter == nil || len(pfx) != r.prefixLen {
		return true
	}
	return r.prefixFilter.MayContain(pfx)
}

// PrefixFilterLength returns the prefix length the table's prefix filter
// was built over, or 0 when the table has none.
func (r *Reader) PrefixFilterLength() int { return r.prefixLen }

// FilterMemory returns the resident bloom-filter size in bytes — key and
// prefix filters together (Table 5.4).
func (r *Reader) FilterMemory() int { return len(r.filter) + len(r.prefixFilter) }

// IndexMemory returns the resident index-block size in bytes.
func (r *Reader) IndexMemory() int { return len(r.index) }

// FileNum returns the table's file number.
func (r *Reader) FileNum() base.FileNum { return r.fileNum }

func decodeHandle(v []byte) (blockHandle, bool) {
	off, n := binary.Uvarint(v)
	if n <= 0 {
		return blockHandle{}, false
	}
	length, m := binary.Uvarint(v[n:])
	if m <= 0 {
		return blockHandle{}, false
	}
	return blockHandle{off, length}, true
}

// GetScratched is the allocation-free point probe: it returns the newest
// visible version of the search key's user key, or found=false when this
// table holds none. The returned value aliases the block payload, cached or
// freshly read, which the scratch holds until its next probe or its
// release: copy it before either. The sequence number and kind are decoded
// here so callers never need the entry's key bytes, which live in
// scratch-owned buffers.
func (r *Reader) GetScratched(search []byte, s *GetScratch) (value []byte, seq base.SeqNum, kind base.Kind, found bool, err error) {
	s.Stats.TablesProbed++
	if err := s.index.InitValidated(r.index, base.InternalCompare); err != nil {
		return nil, 0, 0, false, err
	}
	// Index keys are each block's largest key, so the first index entry
	// >= search points at the only block that can contain the search key.
	s.index.SeekGE(search)
	if err := s.index.Error(); err != nil {
		return nil, 0, 0, false, corrupt(err)
	}
	if !s.index.Valid() {
		return nil, 0, 0, r.noteMiss(s), nil
	}
	h, ok := decodeHandle(s.index.Value())
	if !ok {
		return nil, 0, 0, false, fmt.Errorf("%w: bad index entry", ErrCorrupt)
	}
	s.dropBlock()
	if s.blk, err = r.readBlock(h, nil, &s.Stats); err != nil {
		return nil, 0, 0, false, err
	}
	if err := s.data.Init(s.blk.Bytes(), base.InternalCompare); err != nil {
		return nil, 0, 0, false, corrupt(err)
	}
	s.data.SeekGE(search)
	if err := s.data.Error(); err != nil {
		return nil, 0, 0, false, corrupt(err)
	}
	if !s.data.Valid() {
		return nil, 0, 0, r.noteMiss(s), nil
	}
	gotU, seq, kind, ok := base.DecodeInternalKey(s.data.Key())
	if !ok {
		return nil, 0, 0, false, errShortKey
	}
	if !bytes.Equal(gotU, base.UserKey(search)) {
		return nil, 0, 0, r.noteMiss(s), nil
	}
	return s.data.Value(), seq, kind, true, nil
}

// noteMiss charges a bloom false positive when a filtered table was probed
// without a hit. It always returns false, for use in probe-miss returns.
func (r *Reader) noteMiss(s *GetScratch) bool {
	if r.filter != nil {
		s.Stats.BloomFalsePositives++
	}
	return false
}

// Get returns the internal key and value of the newest visible version of
// the search key's user key. found=false means this table holds no visible
// version. Convenience wrapper over GetScratched for tests and tools; the
// returned slices are freshly allocated.
func (r *Reader) Get(search []byte) (ikey, value []byte, found bool, err error) {
	s := AcquireGetScratch()
	defer ReleaseGetScratch(s)
	v, seq, kind, found, err := r.GetScratched(search, s)
	if err != nil || !found {
		return nil, nil, false, err
	}
	k := base.MakeInternalKey(nil, base.UserKey(search), seq, kind)
	return k, append([]byte(nil), v...), true, nil
}

// NewIter returns a random-access iterator over the table's internal keys.
func (r *Reader) NewIter() iterator.Iterator {
	return r.newIter(false)
}

// NewSequentialIter returns an iterator for one-pass scans (compaction
// inputs): it prefetches ReadaheadSize chunks instead of issuing one ReadAt
// per block, and does not populate the block cache.
func (r *Reader) NewSequentialIter() iterator.Iterator {
	return r.newIter(true)
}

func (r *Reader) newIter(sequential bool) iterator.Iterator {
	t := &TableIter{}
	if err := t.Init(r); err != nil {
		return &iterator.Empty{Err: err}
	}
	if sequential {
		t.ra = &readahead{f: r.f, size: r.size}
	}
	return t
}

// Close drops the initial reference (held by the opener / table cache).
func (r *Reader) Close() error { return r.Unref() }

// TableIter is the two-level iterator: an index cursor selecting data
// blocks, and a data cursor within the current block. Both cursors are
// embedded by value and re-pointed with Init, so walking a table allocates
// nothing beyond the iterator itself — and a TableIter is itself reusable
// across tables via Init, which is how the iterator stack keeps a pooled
// set of table cursors alive across Seek calls (internal/treebase).
//
// The iterator holds a reference to the block its data cursor is on, so
// Value stays valid until the next move. Close returns it; an iterator
// that is dropped without Close only keeps that one buffer from being
// reused.
type TableIter struct {
	r      *Reader
	index  block.Iter
	data   block.Iter
	blk    *cache.Buf // the block data points into
	dataOK bool       // data is initialized on the current index block
	ra     *readahead // non-nil in sequential mode
	err    error
}

// Init points the iterator at table r, retaining both block cursors' key
// buffers. The caller owns r's reference accounting.
func (t *TableIter) Init(r *Reader) error {
	t.r = r
	t.ra = nil
	t.err = nil
	t.dropBlock()
	return t.index.InitValidated(r.index, base.InternalCompare)
}

// dropBlock takes the data cursor off its block and gives the block back.
func (t *TableIter) dropBlock() {
	t.dataOK = false
	t.data.Release()
	t.blk.Release()
	t.blk = nil
}

// ReleaseBuffers drops the iterator's references into the table and its
// block payloads (keeping buffer capacity), so a pooled idle iterator pins
// neither cache entries nor the Reader.
func (t *TableIter) ReleaseBuffers() {
	t.r = nil
	t.ra = nil
	t.index.Release()
	t.dropBlock()
}

func (t *TableIter) loadBlock() bool {
	t.dropBlock()
	if !t.index.Valid() {
		return false
	}
	h, ok := decodeHandle(t.index.Value())
	if !ok {
		t.err = fmt.Errorf("%w: bad index entry", ErrCorrupt)
		return false
	}
	var err error
	if t.blk, err = t.r.readBlock(h, t.ra, nil); err != nil {
		t.err = err
		return false
	}
	if err := t.data.Init(t.blk.Bytes(), base.InternalCompare); err != nil {
		t.err = corrupt(err)
		return false
	}
	t.dataOK = true
	return true
}

func (t *TableIter) SeekGE(target []byte) {
	if t.err != nil {
		return
	}
	// Index keys are each block's largest key, so the first index entry
	// >= target points at the only block that can contain target.
	t.index.SeekGE(target)
	if !t.loadBlock() {
		return
	}
	t.data.SeekGE(target)
	t.skipForwardIfExhausted()
}

// SeekLT positions at the last entry with key < target.
func (t *TableIter) SeekLT(target []byte) {
	if t.err != nil {
		return
	}
	// The first index entry >= target points at the only block that can
	// contain keys in [target's block lower edge, target); earlier blocks
	// hold strictly smaller keys.
	t.index.SeekGE(target)
	if !t.index.Valid() {
		// target is beyond every key in the table.
		t.Last()
		return
	}
	if !t.loadBlock() {
		return
	}
	t.data.SeekLT(target)
	t.skipBackwardIfExhausted()
}

func (t *TableIter) First() {
	if t.err != nil {
		return
	}
	t.index.First()
	if !t.loadBlock() {
		return
	}
	t.data.First()
	t.skipForwardIfExhausted()
}

func (t *TableIter) Last() {
	if t.err != nil {
		return
	}
	t.index.Last()
	if !t.loadBlock() {
		return
	}
	t.data.Last()
	t.skipBackwardIfExhausted()
}

func (t *TableIter) Next() {
	if !t.dataOK || t.err != nil {
		return
	}
	t.data.Next()
	t.skipForwardIfExhausted()
}

func (t *TableIter) Prev() {
	if !t.dataOK || t.err != nil {
		return
	}
	t.data.Prev()
	t.skipBackwardIfExhausted()
}

// skipForwardIfExhausted advances to the next data block when the current
// one is exhausted. Blocks are never empty, so one step suffices, but loop
// defensively.
func (t *TableIter) skipForwardIfExhausted() {
	for t.dataOK && !t.data.Valid() {
		if err := t.data.Error(); err != nil {
			t.err = corrupt(err)
			return
		}
		t.index.Next()
		if !t.loadBlock() {
			return
		}
		t.data.First()
	}
	t.checkKey()
}

// checkKey runs after every move: an entry the cursor lands on is about to
// be handed up as an internal key.
func (t *TableIter) checkKey() {
	if t.dataOK && t.data.Valid() && len(t.data.Key()) < base.TrailerLen {
		t.err = errShortKey
	}
}

// skipBackwardIfExhausted steps to the previous data block when the
// current one has no entry at or before the position.
func (t *TableIter) skipBackwardIfExhausted() {
	for t.dataOK && !t.data.Valid() {
		if err := t.data.Error(); err != nil {
			t.err = corrupt(err)
			return
		}
		t.index.Prev()
		if !t.loadBlock() {
			return
		}
		t.data.Last()
	}
	t.checkKey()
}

func (t *TableIter) Valid() bool {
	return t.err == nil && t.dataOK && t.data.Valid()
}

func (t *TableIter) Key() []byte   { return t.data.Key() }
func (t *TableIter) Value() []byte { return t.data.Value() }

func (t *TableIter) Error() error {
	if t.err != nil {
		return t.err
	}
	return corrupt(t.index.Error())
}

// Close gives back the current block and reports the iterator's error.
func (t *TableIter) Close() error {
	err := t.Error()
	t.ReleaseBuffers()
	return err
}

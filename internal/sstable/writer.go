// Package sstable implements the on-storage sorted table: data blocks, a
// single table-level bloom filter (§4.1), an index block, and a fixed
// footer. Every block carries a masked CRC-32C. PebblesDB keeps the
// LevelDB table concept intact — guards are a layer above sstables — so
// this package is shared untouched by the FLSM and leveled trees.
//
// There is one format, v4, written and read: a 5-byte block trailer — a 1-byte
// block-type tag (none/snappy) followed by the crc32 of payload+type — and
// an 80-byte footer of four block handles (key filter, index, range-del
// block, prefix filter), a format-version byte and the magic. A handle of
// length zero means the block is absent: a table without range tombstones
// has no range-del block, a store without Options.PrefixBloomLength no
// prefix filter. Data blocks are compressed when the codec saves at least
// 12.5%; the filter, index, range-del and prefix-filter blocks are always
// raw (they stay resident in memory, so compressing them would buy nothing
// after open). The range-del block holds fragmented, coalesced tombstones in
// internal-key order; the prefix-filter block is one byte of prefix length
// followed by a bloom filter over the table's distinct first-P-byte
// user-key prefixes, which prefix iterators consult to skip tables whose
// key range overlaps the scan but whose contents cannot match.
//
// Tables of the formats v1 to v3 (builds before PR 14) are rejected at Open
// by their magic.
package sstable

import (
	"encoding/binary"
	"fmt"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/block"
	"pebblesdb/internal/bloom"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/crc"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/vfs"
)

const (
	footerLen     = 80
	tableMagic    = 0xf09f94aedb4eac2e
	formatVersion = 4

	blockTrailerLen = 5 // type byte + crc32(payload ++ type)

	// blockRestartInterval is the number of keys between restart points in
	// a data block.
	blockRestartInterval = 16

	// blockTypeNone / blockTypeSnappy are the trailer type tags
	// (LevelDB-compatible values).
	blockTypeNone   = 0
	blockTypeSnappy = 1
)

type blockHandle struct {
	offset uint64
	length uint64 // physical payload length, excluding the trailer
}

// WriterOptions configures table construction.
type WriterOptions struct {
	// BlockSize is the uncompressed size target for data blocks; 0 selects
	// 4 KiB, the size every store writes.
	BlockSize int
	// BloomBitsPerKey sizes the table-level bloom filter; 0 disables it.
	BloomBitsPerKey int
	// PrefixBloomLength, when positive, adds a second bloom filter over the
	// distinct first-PrefixBloomLength-byte user-key prefixes (keys shorter
	// than the length are omitted: they can never carry a full-length
	// prefix); 0 writes no prefix filter.
	PrefixBloomLength int
	// Compression selects the data-block codec: Snappy unless None. Blocks
	// that fail to shrink by at least 1/8th are stored raw regardless.
	Compression compress.Kind
}

func (o *WriterOptions) ensureDefaults() {
	if o.BlockSize == 0 {
		o.BlockSize = 4 << 10
	}
}

// CompressionStats accounts the writer side of the block codec: logical
// bytes are data-block payloads before compression, physical bytes are
// what actually reached storage. The gap is IO saved on every future read
// and compaction of the table.
type CompressionStats struct {
	// LogicalDataBytes / PhysicalDataBytes cover data blocks only
	// (excluding trailers, filter, index and footer).
	LogicalDataBytes  int64 `metric:"pebblesdb_compress_logical_bytes_total" help:"Data-block bytes before compression."`
	PhysicalDataBytes int64 `metric:"pebblesdb_compress_physical_bytes_total" help:"Data-block bytes as stored."`
	// DataBlocks / CompressedBlocks count data blocks written vs those
	// that were stored compressed.
	DataBlocks       int64 `metric:"pebblesdb_compress_blocks_total" help:"Data blocks written."`
	CompressedBlocks int64 `metric:"pebblesdb_compress_compressed_blocks_total" help:"Data blocks stored compressed."`
	// CompressNanos is time spent inside the codec's encoder.
	CompressNanos int64 `metric:"pebblesdb_compress_nanos_total" help:"Time spent in the block encoder."`
}

// Ratio returns physical/logical data bytes (1.0 = incompressible, 0 before
// any data is written).
func (s CompressionStats) Ratio() float64 {
	if s.LogicalDataBytes == 0 {
		return 0
	}
	return float64(s.PhysicalDataBytes) / float64(s.LogicalDataBytes)
}

// Writer builds a format-v4 sstable from internal keys added in increasing
// order. Reset readies it for the next table with its scratch kept — block
// builders, compression buffer, hash lists, key buffers — so that once
// those have grown an Add allocates nothing.
type Writer struct {
	f      vfs.File
	opts   WriterOptions
	data   *block.Builder
	index  *block.Builder
	offset uint64
	// keyHashes and prefixHashes are what the two bloom filters are built
	// from at Finish: bloom.Hash of every user key, and of every distinct
	// first-PrefixBloomLength-byte prefix.
	keyHashes       []uint64
	prefixHashes    []uint64
	smallest        []byte
	largest         []byte
	count           int
	pendingIndexKey []byte
	pendingHandle   blockHandle
	hasPending      bool
	cbuf            []byte // reusable compression output buffer
	trailer         [blockTrailerLen]byte
	stats           CompressionStats
	rangeDels       rangedel.List
	err             error
}

// NewWriter returns a Writer emitting to f.
func NewWriter(f vfs.File, opts WriterOptions) *Writer {
	opts.ensureDefaults()
	return &Writer{
		f:     f,
		opts:  opts,
		data:  block.NewBuilder(blockRestartInterval),
		index: block.NewBuilder(1),
	}
}

// Reset readies the writer to build another table, into f, with the
// options it was made with. What the finished table's TableInfo refers to
// stays untouched.
func (w *Writer) Reset(f vfs.File) {
	w.data.Reset()
	w.index.Reset()
	*w = Writer{
		f:               f,
		opts:            w.opts,
		data:            w.data,
		index:           w.index,
		keyHashes:       w.keyHashes[:0],
		prefixHashes:    w.prefixHashes[:0],
		largest:         w.largest[:0],
		pendingIndexKey: w.pendingIndexKey[:0],
		cbuf:            w.cbuf,
	}
}

// Add appends an internal key and value. Keys must arrive in strictly
// increasing base.InternalCompare order.
func (w *Writer) Add(ikey, value []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.opts.BloomBitsPerKey > 0 {
		w.keyHashes = append(w.keyHashes, bloom.Hash(base.UserKey(ikey)))
	}
	if p := w.opts.PrefixBloomLength; p > 0 && len(ikey) >= p+base.TrailerLen {
		// Keys arrive sorted, so the keys that share a prefix are adjacent
		// (a key too short to carry one sorts before all of them): the
		// prefix is new unless the key before, still in w.largest, has it.
		if prev := w.largest; len(prev) < p+base.TrailerLen || string(prev[:p]) != string(ikey[:p]) {
			w.prefixHashes = append(w.prefixHashes, bloom.Hash(ikey[:p]))
		}
	}
	if w.smallest == nil {
		w.smallest = append([]byte(nil), ikey...)
	}
	w.largest = append(w.largest[:0], ikey...)
	w.flushPendingIndex()
	w.data.Add(ikey, value)
	w.count++
	if w.data.EstimatedSize() >= w.opts.BlockSize {
		w.err = w.finishDataBlock()
	}
	return w.err
}

// AddRangeDel records a range tombstone over [start, end) at seq. Unlike
// Add, calls may arrive in any order and ranges may overlap: Finish
// fragments and coalesces the set into the table's range-del block. The key
// slices must stay immutable until Finish.
func (w *Writer) AddRangeDel(start, end []byte, seq base.SeqNum) {
	w.rangeDels.Add(rangedel.Tombstone{Start: start, End: end, Seq: seq})
}

// flushPendingIndex writes the queued index entry for the previous data
// block. Deferred so the index key could be shortened against the next
// block's first key; we use the exact last key, which is always correct.
func (w *Writer) flushPendingIndex() {
	if !w.hasPending {
		return
	}
	var hv [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hv[:], w.pendingHandle.offset)
	n += binary.PutUvarint(hv[n:], w.pendingHandle.length)
	w.index.Add(w.pendingIndexKey, hv[:n])
	w.hasPending = false
}

func (w *Writer) finishDataBlock() error {
	if w.data.Empty() {
		return nil
	}
	payload := w.data.Finish()
	h, err := w.writeDataBlock(payload)
	if err != nil {
		return err
	}
	w.pendingIndexKey = append(w.pendingIndexKey[:0], w.largest...)
	w.pendingHandle = h
	w.hasPending = true
	w.data.Reset()
	return nil
}

// writeDataBlock writes one data block, compressing it when the configured
// codec shrinks the payload by at least 12.5% (LevelDB's threshold: below
// that, the decompression cost on every future read outweighs the IO
// saved).
func (w *Writer) writeDataBlock(payload []byte) (blockHandle, error) {
	stored, typ := payload, byte(blockTypeNone)
	if w.opts.Compression != compress.None {
		start := time.Now()
		w.cbuf = compress.Encode(w.cbuf[:cap(w.cbuf)], payload)
		w.stats.CompressNanos += time.Since(start).Nanoseconds()
		if len(w.cbuf) < len(payload)-len(payload)/8 {
			stored, typ = w.cbuf, blockTypeSnappy
			w.stats.CompressedBlocks++
		}
	}
	w.stats.DataBlocks++
	w.stats.LogicalDataBytes += int64(len(payload))
	w.stats.PhysicalDataBytes += int64(len(stored))
	return w.writeRawBlock(stored, typ)
}

// writeRawBlock writes an already-encoded payload with its trailer.
func (w *Writer) writeRawBlock(payload []byte, typ byte) (blockHandle, error) {
	h := blockHandle{offset: w.offset, length: uint64(len(payload))}
	if _, err := w.f.Write(payload); err != nil {
		return h, err
	}
	// The trailer is built in the writer: a local handed to the file's
	// Write would be allocated for every block.
	tr := w.trailer[:]
	tr[0] = typ
	binary.LittleEndian.PutUint32(tr[1:], crc.ValueExtended(payload, tr[:1]))
	if _, err := w.f.Write(tr); err != nil {
		return h, err
	}
	w.offset += uint64(len(payload)) + blockTrailerLen
	return h, nil
}

// TableInfo summarizes a finished table. Smallest and Largest cover both
// point entries and range tombstones; a table whose upper bound comes from
// a tombstone's exclusive end carries a range-del sentinel key there.
type TableInfo struct {
	Size     uint64
	Smallest []byte // internal key
	Largest  []byte // internal key
	Count    int    // point entries
	// NumRangeDels counts tombstone fragments in the range-del block;
	// RangeDelStart/RangeDelEnd are the user-key span [start, end) they
	// cover (nil when none). Reads use the span to skip clean tables.
	NumRangeDels  int
	RangeDelStart []byte
	RangeDelEnd   []byte
	// Compression accounts the data-block codec work for this table.
	Compression CompressionStats
}

// EstimatedSize returns the bytes written so far plus the pending block.
func (w *Writer) EstimatedSize() uint64 {
	return w.offset + uint64(w.data.EstimatedSize())
}

// Count returns the number of entries added so far.
func (w *Writer) Count() int { return w.count }

// Finish completes the table and returns its metadata. The caller owns
// syncing and closing the file. A table may consist solely of range
// tombstones; a table with neither points nor tombstones is an error.
func (w *Writer) Finish() (TableInfo, error) {
	if w.err != nil {
		return TableInfo{}, w.err
	}
	frags := w.rangeDels.Fragments()
	if w.count == 0 && len(frags) == 0 {
		return TableInfo{}, fmt.Errorf("sstable: empty table")
	}
	if err := w.finishDataBlock(); err != nil {
		return TableInfo{}, err
	}
	w.flushPendingIndex()

	// Range-del block (never compressed: resident like the index). One
	// entry per (fragment, seq), in internal-key order — fragment starts
	// ascending, and within a start the fragment's seqs descending, which
	// is exactly descending-trailer order.
	var rangeDelHandle blockHandle
	info := TableInfo{
		Smallest: w.smallest,
		Largest:  append([]byte(nil), w.largest...),
		Count:    w.count,
	}
	if len(frags) > 0 {
		rd := block.NewBuilder(1)
		for _, f := range frags {
			for _, seq := range f.Seqs {
				rd.Add(base.MakeInternalKey(nil, f.Start, seq, base.KindRangeDelete), f.End)
				info.NumRangeDels++
			}
		}
		h, err := w.writeRawBlock(rd.Finish(), blockTypeNone)
		if err != nil {
			return TableInfo{}, err
		}
		rangeDelHandle = h

		// Extend the table bounds to the tombstone span: pruning, guard
		// assignment and compaction picking must see the covered range.
		// Copied, not aliased: fragment keys may point into caller-owned
		// buffers (a compaction's cut boundary is the merge iterator's
		// reused key buffer) that are rewritten after Finish returns, and
		// these spans outlive the compaction in FileMetadata and the
		// manifest.
		info.RangeDelStart = append([]byte(nil), frags[0].Start...)
		info.RangeDelEnd = append([]byte(nil), frags[len(frags)-1].End...)
		rdSmallest := base.MakeInternalKey(nil, info.RangeDelStart, frags[0].Seqs[0], base.KindRangeDelete)
		if info.Smallest == nil || base.InternalCompare(rdSmallest, info.Smallest) < 0 {
			info.Smallest = rdSmallest
		}
		rdLargest := base.MakeRangeDelSentinelKey(nil, info.RangeDelEnd)
		if info.Largest == nil || base.InternalCompare(rdLargest, info.Largest) > 0 {
			info.Largest = rdLargest
		}
	}

	// Filter block (never compressed: resident for the Reader's lifetime).
	var filterHandle blockHandle
	if len(w.keyHashes) > 0 {
		f := bloom.BuildFromHashes(w.keyHashes, w.opts.BloomBitsPerKey)
		h, err := w.writeRawBlock(f, blockTypeNone)
		if err != nil {
			return TableInfo{}, err
		}
		filterHandle = h
	}

	// Prefix-filter block (resident, never compressed): the fixed prefix
	// length followed by a bloom filter over the table's distinct prefixes.
	// Sized by the same bits-per-key knob as the key filter; distinct
	// prefixes are far fewer than keys, so the block is small.
	var prefixHandle blockHandle
	if len(w.prefixHashes) > 0 {
		bits := w.opts.BloomBitsPerKey
		if bits <= 0 {
			bits = 10
		}
		blk := EncodePrefixFilter(w.opts.PrefixBloomLength, bloom.BuildFromHashes(w.prefixHashes, bits))
		h, err := w.writeRawBlock(blk, blockTypeNone)
		if err != nil {
			return TableInfo{}, err
		}
		prefixHandle = h
	}

	// Index block (never compressed, same reason). A tombstone-only table
	// still writes its (empty) index so the reader's open path is uniform.
	indexHandle, err := w.writeRawBlock(w.index.Finish(), blockTypeNone)
	if err != nil {
		return TableInfo{}, err
	}

	// Footer: the four handles (zero for an absent block), format version,
	// magic.
	var footer [footerLen]byte
	for i, h := range []blockHandle{filterHandle, indexHandle, rangeDelHandle, prefixHandle} {
		binary.LittleEndian.PutUint64(footer[16*i:], h.offset)
		binary.LittleEndian.PutUint64(footer[16*i+8:], h.length)
	}
	footer[64] = formatVersion
	binary.LittleEndian.PutUint64(footer[72:], tableMagic)
	if _, err := w.f.Write(footer[:]); err != nil {
		return TableInfo{}, err
	}
	w.offset += footerLen

	info.Size = w.offset
	info.Compression = w.stats
	return info, nil
}

// Package tablecache keeps a bounded number of sstables open, holding their
// file handles, index blocks and bloom filters resident. The paper's read
// experiments hinge on this cache: "the key-value stores cache a limited
// number of sstable index blocks (default: 1000); since PebblesDB has
// fewer, larger files, most of its sstable-index-blocks are cached" (§5.3).
package tablecache

import (
	"path/filepath"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/vfs"
)

// TableCache opens sstables on demand and retains up to a fixed number of
// Readers, evicting least-recently used.
type TableCache struct {
	fs         vfs.FS
	dir        string
	blockCache *cache.Cache
	readers    *cache.Cache
	// codec aggregates block-decompression work across all readers opened
	// through this cache (sstable format v2 compressed blocks).
	codec sstable.CodecStats
}

// New returns a table cache over dir holding up to size open tables.
// blockCache may be nil.
func New(fs vfs.FS, dir string, size int, blockCache *cache.Cache) *TableCache {
	tc := &TableCache{
		fs:         fs,
		dir:        dir,
		blockCache: blockCache,
	}
	tc.readers = cache.New(int64(size), func(_ cache.Key, v interface{}) {
		// Drop the cache's reference; the reader closes once the last
		// in-flight user releases theirs.
		v.(*sstable.Reader).Unref()
	})
	return tc
}

// Find returns the Reader for file fn of the given size, opening it if
// necessary. The caller receives a reference and must call Unref when
// done; eviction only drops the cache's own reference.
func (tc *TableCache) Find(fn base.FileNum, size uint64) (*sstable.Reader, error) {
	k := cache.Key{File: uint64(fn)}
	if v, ok := tc.readers.GetHold(k, func(v interface{}) { v.(*sstable.Reader).Ref() }); ok {
		return v.(*sstable.Reader), nil
	}
	path := filepath.Join(tc.dir, base.MakeFilename(base.FileTypeTable, fn))
	f, err := tc.fs.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := sstable.Open(f, int64(size), fn, tc.blockCache, &tc.codec)
	if err != nil {
		f.Close()
		return nil, err
	}
	// One reference for the caller on top of the opener's reference, which
	// the cache takes over (and releases on eviction).
	r.Ref()
	tc.readers.Set(k, r, 1)
	return r, nil
}

// Evict drops file fn from the table cache and the block cache, closing the
// Reader. Called when a compaction deletes the file.
func (tc *TableCache) Evict(fn base.FileNum) {
	tc.readers.Delete(cache.Key{File: uint64(fn)})
	if tc.blockCache != nil {
		tc.blockCache.DeleteFile(uint64(fn))
	}
}

// Metrics summarizes resident memory for Table 5.4 plus read-side codec
// work.
type Metrics struct {
	OpenTables  int   `metric:"pebblesdb_table_cache_open_tables" help:"Sstables held open by the table cache."`
	FilterBytes int64 `metric:"pebblesdb_table_cache_filter_bytes" help:"Resident bloom-filter bytes of open tables."`
	IndexBytes  int64 `metric:"pebblesdb_table_cache_index_bytes" help:"Resident index-block bytes of open tables."`
	Hits        int64 `metric:"pebblesdb_table_cache_hits_total" help:"Table-cache lookups that found the table open."`
	Misses      int64 `metric:"pebblesdb_table_cache_misses_total" help:"Table-cache lookups that had to open the table."`
	// BlocksDecompressed / BytesDecompressed / DecompressNanos account
	// compressed data blocks inflated on read; block-cache hits skip the
	// codec and do not appear here.
	BlocksDecompressed int64 `metric:"pebblesdb_decompress_blocks_total" help:"Compressed data blocks inflated on read."`
	BytesDecompressed  int64 `metric:"pebblesdb_decompress_bytes_total" help:"Bytes produced by inflating data blocks."`
	DecompressNanos    int64 `metric:"pebblesdb_decompress_nanos_total" help:"Time spent in the block decoder."`
}

// Metrics walks the cached readers. Approximate: concurrent evictions may
// skew counts slightly.
func (tc *TableCache) Metrics() Metrics {
	st := tc.readers.Stats()
	m := Metrics{
		OpenTables:         st.Entries,
		Hits:               st.Hits,
		Misses:             st.Misses,
		BlocksDecompressed: tc.codec.BlocksDecompressed.Load(),
		BytesDecompressed:  tc.codec.BytesDecompressed.Load(),
		DecompressNanos:    tc.codec.DecompressNanos.Load(),
	}
	tc.readers.Range(func(_ cache.Key, v interface{}) {
		r := v.(*sstable.Reader)
		m.FilterBytes += int64(r.FilterMemory())
		m.IndexBytes += int64(r.IndexMemory())
	})
	return m
}

// Close evicts and closes all cached readers.
func (tc *TableCache) Close() {
	tc.readers.Clear()
}

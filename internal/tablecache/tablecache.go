// Package tablecache keeps the metadata of every sstable it has been asked
// for resident — index block, bloom filters, range tombstones — and a
// bounded number of table files open. The paper keeps bloom filters in
// memory (§3.7) and credits its read results to cached table metadata: "the
// key-value stores cache a limited number of sstable index blocks (default:
// 1000); since PebblesDB has fewer, larger files, most of its
// sstable-index-blocks are cached" (§5.3). That limit exists for the sake of
// file descriptors, so descriptors are all it bounds here: a table's
// metadata costs about a kilobyte and stays until the table is deleted, and
// a file is open only around the reads that miss the block cache.
package tablecache

import (
	"path/filepath"
	"sync"
	"sync/atomic"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/vfs"
)

// TableCache hands out the Reader of a table, reading its metadata on
// first touch, and opens the files behind the Readers on demand, at most a
// fixed number at a time.
type TableCache struct {
	fs         vfs.FS
	dir        string
	blockCache *cache.Cache
	// readers maps a base.FileNum to its *sstable.Reader from the table's
	// first Find until Evict or Close. The registry holds one reference.
	readers sync.Map
	handles handles
	hits    atomic.Int64
	misses  atomic.Int64
	// codec aggregates block-decompression work across all readers opened
	// through this cache (sstable format v2 compressed blocks).
	codec sstable.CodecStats
}

// New returns a table cache over dir holding up to size table files open.
// blockCache may be nil.
func New(fs vfs.FS, dir string, size int, blockCache *cache.Cache) *TableCache {
	tc := &TableCache{fs: fs, dir: dir, blockCache: blockCache}
	tc.handles.capacity = max(size, 1)
	tc.handles.cond.L = &tc.handles.mu
	tc.handles.lru.prev, tc.handles.lru.next = &tc.handles.lru, &tc.handles.lru
	return tc
}

// Find returns the Reader for file fn of the given size, reading its
// metadata if this is the table's first touch. The caller receives a
// reference and must call Unref when done. A warm Find is one lock-free
// lookup and a reference: no mutex, no file.
func (tc *TableCache) Find(fn base.FileNum, size uint64) (*sstable.Reader, error) {
	for {
		if v, ok := tc.readers.Load(fn); ok {
			if r := v.(*sstable.Reader); r.TryRef() {
				tc.hits.Add(1)
				return r, nil
			}
			// Evict released r after the lookup; it is out of the registry.
		}
		tc.misses.Add(1)
		f := &tableFile{tc: tc, path: filepath.Join(tc.dir, base.MakeFilename(base.FileTypeTable, fn))}
		r, err := sstable.Open(f, int64(size), fn, tc.blockCache, &tc.codec)
		if err != nil {
			f.Close()
			return nil, err
		}
		// One reference for the caller on top of the opener's, which the
		// registry takes over.
		r.Ref()
		v, raced := tc.readers.LoadOrStore(fn, r)
		if !raced {
			return r, nil
		}
		// A concurrent first touch won: its Reader is the resident one.
		r.Unref()
		r.Unref()
		if r = v.(*sstable.Reader); r.TryRef() {
			return r, nil
		}
	}
}

// Evict drops the Readers of files fns and their cached blocks, in one
// pass over the block cache. Called when the files are deleted; a Reader's
// memory and file handle go with the last reference still in flight.
func (tc *TableCache) Evict(fns ...base.FileNum) {
	blocks := make([]uint64, len(fns))
	for i, fn := range fns {
		if v, ok := tc.readers.LoadAndDelete(fn); ok {
			v.(*sstable.Reader).Unref()
		}
		blocks[i] = uint64(fn)
	}
	if tc.blockCache != nil {
		tc.blockCache.DeleteFiles(blocks...)
	}
}

// ReadNanos returns a moving average of the time a read of a table file
// has taken lately, opening the file included: about a microsecond on an
// in-memory filesystem, the device's latency where reads wait for one. The
// iterator stack asks it whether a seek is worth goroutines.
func (tc *TableCache) ReadNanos() int64 { return tc.handles.readNanos.Load() }

// Metrics summarizes resident memory for Table 5.4 plus read-side codec
// work.
type Metrics struct {
	OpenTables  int   `metric:"pebblesdb_table_cache_open_tables" help:"Sstables whose metadata (index, filters, range tombstones) is resident."`
	OpenHandles int   `metric:"pebblesdb_table_cache_open_handles" help:"Sstable files held open; bounded by TableCacheSize."`
	FilterBytes int64 `metric:"pebblesdb_table_cache_filter_bytes" help:"Resident bloom-filter bytes of all tables touched since they were written."`
	IndexBytes  int64 `metric:"pebblesdb_table_cache_index_bytes" help:"Resident index-block bytes of all tables touched since they were written."`
	Hits        int64 `metric:"pebblesdb_table_cache_hits_total" help:"Table-cache lookups that found the table's metadata resident."`
	Misses      int64 `metric:"pebblesdb_table_cache_misses_total" help:"Table-cache lookups that had to read the table's metadata."`
	// BlocksDecompressed / BytesDecompressed / DecompressNanos account
	// compressed data blocks inflated on read; block-cache hits skip the
	// codec and do not appear here.
	BlocksDecompressed int64 `metric:"pebblesdb_decompress_blocks_total" help:"Compressed data blocks inflated on read."`
	BytesDecompressed  int64 `metric:"pebblesdb_decompress_bytes_total" help:"Bytes produced by inflating data blocks."`
	DecompressNanos    int64 `metric:"pebblesdb_decompress_nanos_total" help:"Time spent in the block decoder."`
}

// Metrics walks the resident readers. Approximate: concurrent first
// touches and evictions may skew counts slightly.
func (tc *TableCache) Metrics() Metrics {
	m := Metrics{
		Hits:               tc.hits.Load(),
		Misses:             tc.misses.Load(),
		BlocksDecompressed: tc.codec.BlocksDecompressed.Load(),
		BytesDecompressed:  tc.codec.BytesDecompressed.Load(),
		DecompressNanos:    tc.codec.DecompressNanos.Load(),
	}
	tc.handles.mu.Lock()
	m.OpenHandles = tc.handles.open
	tc.handles.mu.Unlock()
	tc.readers.Range(func(_, v any) bool {
		r := v.(*sstable.Reader)
		m.OpenTables++
		m.FilterBytes += int64(r.FilterMemory())
		m.IndexBytes += int64(r.IndexMemory())
		return true
	})
	return m
}

// Close drops every resident reader; each closes its file once the last
// in-flight user releases it.
func (tc *TableCache) Close() {
	tc.readers.Range(func(fn, v any) bool {
		tc.readers.Delete(fn)
		v.(*sstable.Reader).Unref()
		return true
	})
}

// handles is the bound on open table files: a recency list of the
// tableFiles that hold one. A read of a table whose file is closed opens
// it, first closing the least recently used file no read is using; when
// every open file is mid-read it waits for one, so the number of files open
// never exceeds capacity — a store with more live tables than the process
// may hold descriptors keeps working.
type handles struct {
	mu   sync.Mutex
	cond sync.Cond // a read finished, an open finished or a slot came free
	// waiting counts goroutines in cond.Wait, so that the common release
	// wakes nobody.
	waiting  int
	capacity int
	open     int // files open or being opened
	// readNanos is a moving average of how long a ReadAt took, handle
	// included: written under mu, read without.
	readNanos atomic.Int64
	// lru is the sentinel of the circular list of tableFiles with an open
	// file: lru.next the most recently read, lru.prev the next to close.
	lru tableFile
}

func (h *handles) wait() {
	h.waiting++
	h.cond.Wait()
	h.waiting--
}

func (h *handles) wake() {
	if h.waiting > 0 {
		h.cond.Broadcast()
	}
}

func (h *handles) unlink(t *tableFile) {
	t.prev.next, t.next.prev = t.next, t.prev
}

func (h *handles) pushFront(t *tableFile) {
	t.prev, t.next = &h.lru, h.lru.next
	t.prev.next, t.next.prev = t, t
}

// tableFile is the sstable.File of one Reader: the table's path, and its
// file while one of the bounded handles is lent to it. Everything below
// path is guarded by the cache's handles.mu.
type tableFile struct {
	tc   *TableCache
	path string

	f          vfs.File // nil while the file is closed
	opening    bool     // a read is opening f outside the lock
	reads      int      // ReadAt calls using f right now
	prev, next *tableFile
}

// ReadAt reads from the table's file, opening it if no handle is lent to
// this table. An open failure is the read's error.
func (t *tableFile) ReadAt(p []byte, off int64) (int, error) {
	start := obs.Monotonic()
	f, err := t.acquire()
	if err != nil {
		return 0, err
	}
	n, err := f.ReadAt(p, off)
	took := obs.Monotonic() - start
	h := &t.tc.handles
	h.mu.Lock()
	avg := h.readNanos.Load()
	h.readNanos.Store(avg + (took-avg)/8)
	t.reads--
	if t.reads == 0 {
		h.wake()
	}
	h.mu.Unlock()
	return n, err
}

// acquire returns the table's open file with a read counted on it, which
// keeps it from being closed under the caller.
func (t *tableFile) acquire() (vfs.File, error) {
	h := &t.tc.handles
	h.mu.Lock()
	var victim vfs.File
	for t.f == nil && victim == nil {
		if t.opening {
			h.wait() // for the read that is opening it
			continue
		}
		if h.open < h.capacity {
			h.open++
			break
		}
		// Take over the slot of the least recently read idle file.
		v := h.lru.prev
		for v != &h.lru && v.reads > 0 {
			v = v.prev
		}
		if v == &h.lru {
			h.wait() // every open file is mid-read
			continue
		}
		h.unlink(v)
		victim, v.f = v.f, nil
	}
	if t.f != nil {
		t.reads++
		if h.lru.next != t {
			h.unlink(t)
			h.pushFront(t)
		}
		h.mu.Unlock()
		return t.f, nil
	}
	t.opening = true
	h.mu.Unlock()

	if victim != nil {
		victim.Close()
	}
	f, err := t.tc.fs.Open(t.path)

	h.mu.Lock()
	t.opening = false
	if err != nil {
		h.open--
	} else {
		t.f, t.reads = f, 1
		h.pushFront(t)
	}
	h.wake()
	h.mu.Unlock()
	return f, err
}

// Close gives the table's handle back. The Reader calls it when its last
// reference goes, so no read is in flight and none will follow.
func (t *tableFile) Close() error {
	h := &t.tc.handles
	h.mu.Lock()
	f := t.f
	if f != nil {
		t.f = nil
		h.unlink(t)
	}
	h.mu.Unlock()
	if f == nil {
		return nil
	}
	err := f.Close()
	h.mu.Lock()
	h.open--
	h.wake()
	h.mu.Unlock()
	return err
}

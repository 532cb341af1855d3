package tablecache

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/vfs"
)

// countFS counts what a table cache asks of the filesystem: opens, reads,
// and how many handles it holds at once.
type countFS struct {
	vfs.FS
	opens, reads atomic.Int64
	open, peak   atomic.Int64
	onOpen       func() // called inside Open, before the handle exists
}

func (fs *countFS) Open(name string) (vfs.File, error) {
	if fs.onOpen != nil {
		fs.onOpen()
	}
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	fs.opens.Add(1)
	n := fs.open.Add(1)
	for p := fs.peak.Load(); n > p && !fs.peak.CompareAndSwap(p, n); p = fs.peak.Load() {
	}
	return &countFile{File: f, fs: fs}, nil
}

type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	return f.File.ReadAt(p, off)
}

func (f *countFile) Close() error {
	f.fs.open.Add(-1)
	return f.File.Close()
}

// makeTables writes tables 1..n of nkeys keys each and returns their sizes,
// indexed by file number.
func makeTables(t testing.TB, fs vfs.FS, n, nkeys int) []uint64 {
	sizes := make([]uint64, n+1)
	for fn := 1; fn <= n; fn++ {
		sizes[fn] = makeTable(t, fs, "db", base.FileNum(fn), nkeys)
	}
	return sizes
}

func makeTable(t testing.TB, fs vfs.FS, dir string, fn base.FileNum, nkeys int) uint64 {
	t.Helper()
	fs.MkdirAll(dir)
	f, err := fs.Create(filepath.Join(dir, base.MakeFilename(base.FileTypeTable, fn)))
	if err != nil {
		t.Fatal(err)
	}
	w := sstable.NewWriter(f, sstable.WriterOptions{BloomBitsPerKey: 10})
	for i := 0; i < nkeys; i++ {
		ik := base.MakeInternalKey(nil, []byte(fmt.Sprintf("key%06d", i)), base.SeqNum(i+1), base.KindSet)
		if err := w.Add(ik, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	return info.Size
}

func TestFindCachesReaders(t *testing.T) {
	fs := vfs.NewMem()
	size := makeTable(t, fs, "db", 1, 100)
	tc := New(fs, "db", 100, nil)
	defer tc.Close()

	r1, err := tc.Find(1, size)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tc.Find(1, size)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second Find should hit the cache")
	}
	m := tc.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.OpenTables != 1 {
		t.Fatalf("metrics %+v", m)
	}
	if m.FilterBytes == 0 || m.IndexBytes == 0 {
		t.Fatalf("resident memory not reported: %+v", m)
	}
	r1.Unref()
	r2.Unref()
}

func TestFindMissingFile(t *testing.T) {
	fs := vfs.NewMem()
	tc := New(fs, "db", 10, nil)
	defer tc.Close()
	if _, err := tc.Find(42, 100); err == nil {
		t.Fatal("missing table should fail")
	}
}

func TestEvictClosesWhenUnreferenced(t *testing.T) {
	fs := vfs.NewMem()
	size := makeTable(t, fs, "db", 1, 50)
	tc := New(fs, "db", 10, nil)
	defer tc.Close()

	r, err := tc.Find(1, size)
	if err != nil {
		t.Fatal(err)
	}
	// Evict while referenced: the reader must stay usable.
	tc.Evict(1)
	it := r.NewIter()
	it.First()
	if !it.Valid() {
		t.Fatal("evicted-but-referenced reader unusable")
	}
	it.Close()
	r.Unref()

	// A new Find reopens the file.
	r2, err := tc.Find(1, size)
	if err != nil {
		t.Fatal(err)
	}
	r2.Unref()
}

// TestEvictionUnderPressure reads 64 tables through 16 handles: every
// table's metadata ends up resident, and the files open at any moment stay
// within the bound.
func TestEvictionUnderPressure(t *testing.T) {
	fs := &countFS{FS: vfs.NewMem()}
	sizes := makeTables(t, fs, 64, 10)
	tc := New(fs, "db", 16, nil)
	for fn := base.FileNum(1); fn <= 64; fn++ {
		r, err := tc.Find(fn, sizes[fn])
		if err != nil {
			t.Fatal(err)
		}
		it := r.NewIter()
		it.First()
		if !it.Valid() {
			t.Fatalf("table %d unreadable", fn)
		}
		it.Close()
		r.Unref()
	}
	if m := tc.Metrics(); m.OpenTables != 64 || m.OpenHandles != 16 || fs.peak.Load() > 16 {
		t.Fatalf("want 64 resident tables over 16 handles, got %+v with a peak of %d files open", m, fs.peak.Load())
	}
	tc.Close()
	if n := fs.open.Load(); n != 0 {
		t.Fatalf("%d files open after Close", n)
	}
}

// TestWarmFindTouchesNoFile: once every table has been touched, Find and the
// bloom check cost no open, no read and no miss, however few handles there
// are.
func TestWarmFindTouchesNoFile(t *testing.T) {
	fs := &countFS{FS: vfs.NewMem()}
	sizes := makeTables(t, fs, 64, 10)
	tc := New(fs, "db", 4, nil)
	defer tc.Close()
	pass := func() {
		for fn := base.FileNum(1); fn <= 64; fn++ {
			r, err := tc.Find(fn, sizes[fn])
			if err != nil {
				t.Fatal(err)
			}
			if !r.MayContain([]byte("key000003")) {
				t.Fatalf("table %d: bloom filter denies a key it holds", fn)
			}
			r.Unref()
		}
	}
	pass()
	opens, reads, before := fs.opens.Load(), fs.reads.Load(), tc.Metrics()
	pass()
	after := tc.Metrics()
	if o, r := fs.opens.Load()-opens, fs.reads.Load()-reads; o != 0 || r != 0 {
		t.Fatalf("warm pass made %d opens and %d reads, want none", o, r)
	}
	if after.Misses != before.Misses || after.Hits != before.Hits+64 || after.OpenTables != 64 {
		t.Fatalf("warm pass: metrics went from %+v to %+v", before, after)
	}
}

// TestHandlesBoundedUnderConcurrentColdReads: with a block cache too small
// to hold a block every Get reads its table's file, and 8 readers over 64
// tables still never have more than 4 files open.
func TestHandlesBoundedUnderConcurrentColdReads(t *testing.T) {
	fs := &countFS{FS: vfs.NewMem()}
	sizes := makeTables(t, fs, 64, 10)
	tc := New(fs, "db", 4, cache.New(1))
	search := base.MakeSearchKey(nil, []byte("key000003"), base.MaxSeqNum)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := sstable.AcquireGetScratch()
			defer sstable.ReleaseGetScratch(s)
			for i := 0; i < 4*64; i++ {
				fn := base.FileNum((i*7+g*11)%64 + 1)
				r, err := tc.Find(fn, sizes[fn])
				if err != nil {
					t.Errorf("find %d: %v", fn, err)
					return
				}
				_, _, _, found, err := r.GetScratched(search, s)
				r.Unref()
				if err != nil || !found {
					t.Errorf("get from table %d: found=%v err=%v", fn, found, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if p, m := fs.peak.Load(), tc.Metrics(); p > 4 || m.OpenHandles > 4 || m.OpenTables != 64 {
		t.Fatalf("peak of %d files open over a bound of 4; %+v", p, m)
	}
	tc.Close()
	if n := fs.open.Load(); n != 0 {
		t.Fatalf("%d files open after Close", n)
	}
}

// TestEvictWithLiveIterator: an iterator outlives the Evict of its table and
// reads it to the end; its release then frees the reader and the handle.
func TestEvictWithLiveIterator(t *testing.T) {
	fs := &countFS{FS: vfs.NewMem()}
	size := makeTable(t, fs, "db", 1, 5000) // several data blocks
	tc := New(fs, "db", 4, nil)
	r, err := tc.Find(1, size)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIter()
	it.First()
	tc.Evict(1)
	n := 0
	for ; it.Valid(); it.Next() {
		n++
	}
	if err := it.Close(); err != nil || n != 5000 {
		t.Fatalf("iterator over an evicted table saw %d of 5000 entries, err %v", n, err)
	}
	if m := tc.Metrics(); m.OpenTables != 0 || m.OpenHandles != 1 {
		t.Fatalf("evicted table with a live reference: %+v", m)
	}
	r.Unref()
	if m := tc.Metrics(); m.OpenTables != 0 || m.OpenHandles != 0 || fs.open.Load() != 0 {
		t.Fatalf("after the last reference: %+v, %d files open", m, fs.open.Load())
	}
	tc.Close()
	if n := fs.open.Load(); n != 0 {
		t.Fatalf("%d files open after Close", n)
	}
}

// TestRacingFirstTouch holds two first touches of one table inside fs.Open
// until both are there: they end up sharing one resident reader, and the
// loser's handle is closed.
func TestRacingFirstTouch(t *testing.T) {
	fs := &countFS{FS: vfs.NewMem()}
	size := makeTable(t, fs, "db", 1, 50)
	tc := New(fs, "db", 4, nil)
	var calls atomic.Int64
	var both sync.WaitGroup
	both.Add(2)
	fs.onOpen = func() {
		if calls.Add(1) <= 2 {
			both.Done()
			both.Wait()
		}
	}
	var got [2]*sstable.Reader
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := tc.Find(1, size)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = r
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got[0] != got[1] {
		t.Fatal("racing first touches kept two readers")
	}
	if m := tc.Metrics(); m.OpenTables != 1 || m.Misses != 2 || m.OpenHandles != 1 || fs.open.Load() != 1 {
		t.Fatalf("after the race: %+v, %d files open", m, fs.open.Load())
	}
	got[0].Unref()
	got[1].Unref()
	tc.Close()
	if n := fs.open.Load(); n != 0 {
		t.Fatalf("%d files open after Close", n)
	}
}

// BenchmarkFind is the warm lookup every table probe of a Get starts with.
func BenchmarkFind(b *testing.B) {
	fs := vfs.NewMem()
	const tables = 1024
	sizes := makeTables(b, fs, tables, 10)
	tc := New(fs, "db", 1000, nil)
	defer tc.Close()
	for fn := base.FileNum(1); fn <= tables; fn++ {
		r, err := tc.Find(fn, sizes[fn])
		if err != nil {
			b.Fatal(err)
		}
		r.Unref()
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		fn := base.FileNum(next.Add(97))
		for pb.Next() {
			fn = fn%tables + 1
			r, err := tc.Find(fn, sizes[fn])
			if err != nil {
				b.Fatal(err)
			}
			r.Unref()
		}
	})
}

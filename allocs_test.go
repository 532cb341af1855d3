package pebblesdb_test

import (
	"testing"

	"pebblesdb"
	"pebblesdb/internal/harness"
	"pebblesdb/internal/race"
	"pebblesdb/internal/vfs"
)

// openWarmDB builds a compacted store whose block cache holds the whole
// dataset, then warms every structure a point read touches. tweak adjusts
// the options first.
func openWarmDB(t testing.TB, engine pebblesdb.Engine, n int, tweak ...func(*pebblesdb.Options)) *pebblesdb.DB {
	t.Helper()
	o := pebblesdb.PresetPebblesDB.Options()
	o.Engine = engine
	harness.Scale(o, 16)
	o.BlockCacheSize = 64 << 20 // hold the entire dataset decompressed
	o.WithFS(vfs.NewMem())
	for _, fn := range tweak {
		fn(o)
	}
	db, err := pebblesdb.Open("allocbench", o)
	if err != nil {
		t.Fatal(err)
	}
	if err := harness.FillRandom(db, n, n, 128, 1); err != nil {
		db.Close()
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		db.Close()
		t.Fatal(err)
	}
	// Warm the table cache, block cache and bloom filters.
	key := make([]byte, 0, 16)
	for i := 0; i < n; i++ {
		key = harness.KeyAt(key, uint64(i))
		if _, _, err := db.Get(key, nil); err != nil {
			db.Close()
			t.Fatal(err)
		}
	}
	return db
}

// noSeekCompaction turns seek compaction off, for a test whose reads would
// otherwise start units that allocate, and write tables whose first touch
// allocates, under its measurement.
func noSeekCompaction(o *pebblesdb.Options) { o.SeekCompactionThreshold = -1 }

// TestGetAllocs pins the end-to-end point-read allocation budgets: on a
// warm cache, DB.GetTo with a reusable destination buffer is allocation
// free, and DB.Get pays only the value copy. CI fails when a regression
// pushes either over budget.
func TestGetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 20_000
	for _, eng := range []struct {
		name   string
		engine pebblesdb.Engine
	}{{"flsm", pebblesdb.EngineFLSM}, {"leveled", pebblesdb.EngineLeveled}} {
		t.Run(eng.name, func(t *testing.T) {
			db := openWarmDB(t, eng.engine, n)
			defer db.Close()

			key := harness.KeyAt(nil, 42)
			buf := make([]byte, 0, 256)

			// GetTo with a caller buffer: the entire read stack reuses
			// pooled scratch state, so the steady state is zero allocations.
			allocs := testing.AllocsPerRun(200, func() {
				v, ok, err := db.GetTo(key, buf, nil)
				if err != nil || !ok {
					t.Fatalf("GetTo: ok=%v err=%v", ok, err)
				}
				buf = v[:0]
			})
			if allocs > 0 {
				t.Errorf("DB.GetTo allocs/op = %v, want 0", allocs)
			}

			// Plain Get allocates only the caller-owned value copy
			// (budget 2 leaves slack for one pool refill under GC).
			allocs = testing.AllocsPerRun(200, func() {
				if _, ok, err := db.Get(key, nil); err != nil || !ok {
					t.Fatalf("Get: ok=%v err=%v", ok, err)
				}
			})
			if allocs > 2 {
				t.Errorf("DB.Get allocs/op = %v, want <= 2", allocs)
			}

			// A missing key (bloom filters rule every table out) must also
			// be allocation-free with a caller buffer.
			missing := harness.KeyAt(nil, uint64(n)*10+7)
			allocs = testing.AllocsPerRun(200, func() {
				if _, ok, err := db.GetTo(missing, buf, nil); err != nil || ok {
					t.Fatalf("GetTo(missing): ok=%v err=%v", ok, err)
				}
			})
			if allocs > 0 {
				t.Errorf("DB.GetTo(miss) allocs/op = %v, want 0", allocs)
			}

			// A key masked by a range tombstone must return not-found with
			// zero allocations too — first with the tombstone resident in
			// the memtable (one atomic load + binary search), then flushed
			// into an sstable's range-del block (resident list consulted
			// through the table's metadata span check).
			coveredLo, coveredHi := harness.KeyAt(nil, 100), harness.KeyAt(nil, 200)
			covered := harness.KeyAt(nil, 150)
			if err := db.DeleteRange(coveredLo, coveredHi); err != nil {
				t.Fatal(err)
			}
			for _, stage := range []string{"memtable", "flushed"} {
				if stage == "flushed" {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
					// Warm the covered path once (table cache, resident list).
					if _, ok, err := db.GetTo(covered, buf, nil); err != nil || ok {
						t.Fatalf("GetTo(covered) warmup: ok=%v err=%v", ok, err)
					}
				}
				allocs = testing.AllocsPerRun(200, func() {
					if _, ok, err := db.GetTo(covered, buf, nil); err != nil || ok {
						t.Fatalf("GetTo(covered %s): ok=%v err=%v", stage, ok, err)
					}
				})
				if allocs > 0 {
					t.Errorf("DB.GetTo(covered, %s) allocs/op = %v, want 0", stage, allocs)
				}
			}
		})
	}
}

// TestIterAllocs pins the warm scan-path allocation budgets: once an
// iterator has done its first seek, further SeekGE/Next/Value calls reuse
// the pooled block cursors, heap entries and key buffers end-to-end, so
// the steady state is zero allocations (budget 2 leaves slack for a pool
// refill under GC, per the acceptance bar).
func TestIterAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 20_000
	for _, eng := range []struct {
		name   string
		engine pebblesdb.Engine
	}{{"flsm", pebblesdb.EngineFLSM}, {"leveled", pebblesdb.EngineLeveled}} {
		t.Run(eng.name, func(t *testing.T) {
			db := openWarmDB(t, eng.engine, n)
			defer db.Close()

			it, err := db.NewIter(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()

			// Warm the iterator: the first seek opens table iterators and
			// sizes the scratch buffers; everything after reuses them.
			seekKey := harness.KeyAt(nil, 123)
			it.SeekGE(seekKey)
			if !it.Valid() {
				t.Fatal("warmup seek found nothing")
			}
			it.Next()
			it.Value()

			// Warm SeekGE landing in already-open tables.
			allocs := testing.AllocsPerRun(200, func() {
				it.SeekGE(seekKey)
				if !it.Valid() {
					t.Fatal("seek found nothing")
				}
			})
			if allocs > 2 {
				t.Errorf("warm SeekGE allocs/op = %v, want <= 2", allocs)
			}

			// Warm SeekGE+Next+Value loop — the scanshort shape.
			allocs = testing.AllocsPerRun(200, func() {
				it.SeekGE(seekKey)
				for i := 0; i < 4 && it.Valid(); i++ {
					_ = it.Key()
					_ = it.Value()
					it.Next()
				}
			})
			if allocs > 2 {
				t.Errorf("warm SeekGE+Next+Value allocs/op = %v, want <= 2", allocs)
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}

			// A warm prefix iterator: reusing one iterator is the server's
			// pooled-scan shape; a fresh NewIter per prefix costs only the
			// pooled-iterator checkout.
			prefix := seekKey[:8]
			pit, err := db.NewIter(&pebblesdb.IterOptions{Prefix: prefix})
			if err != nil {
				t.Fatal(err)
			}
			defer pit.Close()
			pit.First()
			allocs = testing.AllocsPerRun(200, func() {
				pit.SeekGE(prefix)
				for pit.Valid() {
					_ = pit.Key()
					_ = pit.Value()
					pit.Next()
				}
			})
			if allocs > 2 {
				t.Errorf("warm prefix scan allocs/op = %v, want <= 2", allocs)
			}
			if err := pit.Error(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNewIterAllocs pins a whole scan at zero allocations on a warm, idle
// store: NewIter, SeekGE, twenty Next and Close. The public Iterator is the
// engine's pooled iterator itself, not a wrapper allocated per NewIter
// (which was one object a scan), and the level iterators with their heaps
// and table cursors come from their pools. Seek compaction is off, so no
// unit rewrites tables under the measurement.
func TestNewIterAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 20_000
	for _, eng := range []struct {
		name   string
		engine pebblesdb.Engine
	}{{"flsm", pebblesdb.EngineFLSM}, {"leveled", pebblesdb.EngineLeveled}} {
		t.Run(eng.name, func(t *testing.T) {
			db := openWarmDB(t, eng.engine, n, noSeekCompaction)
			defer db.Close()
			var keys [][]byte
			for i := uint64(0); i < 16; i++ {
				keys = append(keys, harness.KeyAt(nil, i*(n/16)))
			}
			scans := func() {
				for _, k := range keys {
					it, err := db.NewIter(nil)
					if err != nil {
						t.Fatal(err)
					}
					it.SeekGE(k)
					for i := 0; i < 20 && it.Valid(); i++ {
						_, _ = it.Key(), it.Value()
						it.Next()
					}
					if err := it.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			scans() // every block the scans read, cached; the pools filled
			if allocs := testing.AllocsPerRun(50, scans) / float64(len(keys)); allocs != 0 {
				t.Errorf("NewIter+SeekGE+20 Next+Close allocs/op = %.2f, want 0", allocs)
			}
		})
	}
}

// BenchmarkGetTo is the allocation-free read loop: reusing the destination
// buffer across calls exercises the pooled scratch end to end.
func BenchmarkGetTo(b *testing.B) {
	db := openWarmDB(b, pebblesdb.EngineFLSM, 20_000)
	defer db.Close()
	key := make([]byte, 0, 16)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = harness.KeyAt(key, uint64(i%20_000))
		v, _, err := db.GetTo(key, buf, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(v) > 0 {
			buf = v[:0]
		}
	}
}

// TestColdBlockGetAllocs pins what a Get costs when every block it needs
// misses the block cache but the tables' metadata is resident — the state
// of a store much larger than its cache. Nothing is left that allocates:
// the block is decoded into a buffer the last holder of an earlier block
// gave back (the budget, under half an allocation a Get, leaves slack for a
// pool the collector emptied; a payload allocated per block is one).
// Opening a table, a read buffer or a fresh payload per block, a list node
// or a boxed value per cache insert would all push it over.
func TestColdBlockGetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 20_000
	for _, eng := range []struct {
		name   string
		engine pebblesdb.Engine
	}{{"flsm", pebblesdb.EngineFLSM}, {"leveled", pebblesdb.EngineLeveled}} {
		t.Run(eng.name, func(t *testing.T) {
			o := pebblesdb.PresetPebblesDB.Options()
			o.Engine = eng.engine
			harness.Scale(o, 16)
			o.BlockCacheSize = 1 // holds no block
			if eng.engine == pebblesdb.EngineFLSM {
				// The compacted FLSM store keeps guards of several tables,
				// and a Get that consults two of them charges the guard.
				noSeekCompaction(o)
			}
			o.WithFS(vfs.NewMem())
			db, err := pebblesdb.Open("coldblocks", o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := harness.FillRandom(db, n, n, 128, 1); err != nil {
				t.Fatal(err)
			}
			// Compact, so that no background unit writes a table — a first
			// touch — under the measurement.
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
			// FillRandom leaves gaps: take the first 64 keys that exist.
			var keys [][]byte
			for i := uint64(0); len(keys) < 64 && i < n; i += 97 {
				k := harness.KeyAt(nil, i)
				if _, ok, err := db.Get(k, nil); err != nil {
					t.Fatal(err)
				} else if ok {
					keys = append(keys, k)
				}
			}
			buf := make([]byte, 0, 256)
			get := func() {
				for _, k := range keys {
					v, ok, err := db.GetTo(k, buf, nil)
					if err != nil || !ok {
						t.Fatalf("GetTo(%s): ok=%v err=%v", k, ok, err)
					}
					buf = v[:0]
				}
			}
			get() // first touch of every table the keys reach
			before := db.Metrics().Cache
			allocs := testing.AllocsPerRun(20, get) / float64(len(keys))
			after := db.Metrics().Cache
			if after.Misses != before.Misses || after.BlocksDecompressed == before.BlocksDecompressed {
				t.Fatalf("want cold blocks under warm tables, got %d metadata reads and %d blocks inflated during the measured Gets",
					after.Misses-before.Misses, after.BlocksDecompressed-before.BlocksDecompressed)
			}
			if allocs >= 0.5 {
				t.Errorf("cold-block DB.GetTo allocs/op = %.2f, want under half of one", allocs)
			}
		})
	}
}

// TestFreshIterScanAllocs pins what a scan costs in the shape the benchmark
// of record runs it: a new iterator per scan, a seek, twenty steps, Close —
// on a store left as a load of memtable-sized flushes left it, several
// levels deep, whose block cache holds nothing and whose tables' metadata
// is resident. The engine
// iterator, a level iterator per level with its merging heap and table
// cursors, and every block the scan reads are borrowed and handed back, and
// the public Iterator is the engine's pooled one. Nothing is left; before
// level iterators and block buffers were pooled this store cost eleven to
// sixteen, and the deeper one of the benchmark thirty.
func TestFreshIterScanAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 100_000
	for _, eng := range []struct {
		name   string
		engine pebblesdb.Engine
	}{{"flsm", pebblesdb.EngineFLSM}, {"leveled", pebblesdb.EngineLeveled}} {
		t.Run(eng.name, func(t *testing.T) {
			o := pebblesdb.PresetPebblesDB.Options()
			o.Engine = eng.engine
			harness.Scale(o, 16)
			o.BlockCacheSize = 1 // holds no block
			noSeekCompaction(o)
			// A memtable no chunk of the load fills: the load flushes only
			// when it asks, and lets compaction settle after each flush,
			// so the shape it leaves does not depend on how flushes and
			// workers interleave.
			chunk := o.MemtableSize / 136
			o.MemtableSize = 8 << 20
			o.WithFS(vfs.NewMem())
			db, err := pebblesdb.Open("freshiters", o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < n/chunk; i++ {
				if err := harness.FillRandom(db, chunk, n, 128, int64(i+1)); err != nil {
					t.Fatal(err)
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := db.WaitIdle(); err != nil {
					t.Fatal(err)
				}
			}
			levels := 0
			for _, tables := range db.Metrics().Tree.LevelFiles {
				if tables > 0 {
					levels++
				}
			}
			if levels < 2 {
				t.Fatalf("the fill left %d populated levels, want a multi-level store", levels)
			}
			var keys [][]byte
			for i := uint64(0); i < 16; i++ {
				keys = append(keys, harness.KeyAt(nil, i*(n/16)))
			}
			scans := func() {
				for _, k := range keys {
					it, err := db.NewIter(nil)
					if err != nil {
						t.Fatal(err)
					}
					it.SeekGE(k)
					for i := 0; i < 20 && it.Valid(); i++ {
						_, _ = it.Key(), it.Value()
						it.Next()
					}
					if err := it.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// First touch of every table, and the pools filled.
			it, err := db.NewIter(nil)
			if err != nil {
				t.Fatal(err)
			}
			for it.First(); it.Valid(); it.Next() {
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			scans()
			before := db.Metrics().Cache
			allocs := testing.AllocsPerRun(20, scans) / float64(len(keys))
			after := db.Metrics().Cache
			if after.Misses != before.Misses || after.BlocksDecompressed == before.BlocksDecompressed {
				t.Fatalf("want cold blocks under warm tables, got %d metadata reads and %d blocks inflated during the measured scans",
					after.Misses-before.Misses, after.BlocksDecompressed-before.BlocksDecompressed)
			}
			if allocs > 3 {
				t.Errorf("NewIter+SeekGE+20 Next+Close allocs/op = %.2f, want <= 3", allocs)
			}
			t.Logf("%.2f allocs per fresh-iterator scan over %d levels", allocs, levels)
		})
	}
}

// TestPutAllocs pins the write path's budget on an idle store, per layout:
// DB.Put and DB.Delete borrow their one-op batch from a pool, the lone
// writer leads a group of one out of the commit queue's recycled array and
// a pooled request, and the memtable composes the entry in its arena, so
// what a commit still allocates is one object, the one-byte slice the WAL
// checksums its record type from (wal.Writer.emit; left in place on
// purpose, see EXPERIMENTS.md "A put stops allocating per key"), whether
// it is a Put, a Delete or an Apply of a Batch the caller reuses. Before, a Put cost nine. The arena's
// next chunk and a pool the collector emptied are amortised over thousands
// of puts and round to none. The memtable is large enough that nothing
// flushes under the measurement.
func TestPutAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	for _, eng := range []struct {
		name   string
		engine pebblesdb.Engine
	}{{"flsm", pebblesdb.EngineFLSM}, {"leveled", pebblesdb.EngineLeveled}} {
		t.Run(eng.name, func(t *testing.T) {
			o := pebblesdb.PresetPebblesDB.Options()
			o.Engine = eng.engine
			o.MemtableSize = 64 << 20
			o.WithFS(vfs.NewMem())
			db, err := pebblesdb.Open("putallocs", o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			value := make([]byte, 128)
			key := make([]byte, 0, 16)
			i := uint64(0)
			// Warm-up: the WAL's file and the batch pool.
			for ; i < 100; i++ {
				if err := db.Put(harness.KeyAt(key, i), value); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5000, func() {
				i++
				if err := db.Put(harness.KeyAt(key, i), value); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("DB.Put allocs/op = %v, want <= 1", allocs)
			}
			allocs = testing.AllocsPerRun(5000, func() {
				i--
				if err := db.Delete(harness.KeyAt(key, i)); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("DB.Delete allocs/op = %v, want <= 1", allocs)
			}
			b := db.NewBatch()
			allocs = testing.AllocsPerRun(5000, func() {
				b.Reset()
				for j := 0; j < 4; j++ {
					i++
					b.Set(harness.KeyAt(key, i), value)
				}
				if err := db.Apply(b, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("Apply of a reused 4-op Batch allocs/op = %v, want <= 1 (the WAL's), whatever the number of ops", allocs)
			}
			if got := db.Metrics().Flushes; got != 0 {
				t.Fatalf("%d flushes ran under the measurement", got)
			}
		})
	}
}

// Per-operation benchmarks of the library: put, durable apply, get, seek
// and the two range-scan shapes, each on its own in-memory FLSM store. The
// paper's figures and tables are regenerated by cmd/experiments; the gated
// end-to-end numbers come from bench/.
//
// Run with: go test -run '^$' -bench . -benchmem
package pebblesdb_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"pebblesdb"
	"pebblesdb/internal/harness"
	"pebblesdb/internal/vfs"
)

func openBenchDB(b *testing.B, p pebblesdb.Preset) *pebblesdb.DB {
	b.Helper()
	o := p.Options()
	harness.Scale(o, 16)
	o.WithFS(vfs.NewMem())
	db, err := pebblesdb.Open("bench", o)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkPut measures single-key put latency on the FLSM engine.
func BenchmarkPut(b *testing.B) {
	db := openBenchDB(b, pebblesdb.PresetPebblesDB)
	defer db.Close()
	val := make([]byte, 128)
	rand.New(rand.NewSource(1)).Read(val)
	key := make([]byte, 0, 16)
	b.SetBytes(16 + 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = harness.KeyAt(key, uint64(i*2654435761))
		if err := db.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutParallel measures put throughput with concurrent writers
// (b.RunParallel; run with -cpu=8 to compare against BenchmarkPut). The
// group-commit pipeline lets the goroutines share WAL appends and apply to
// the memtable concurrently instead of serializing on a commit mutex.
func BenchmarkPutParallel(b *testing.B) {
	db := openBenchDB(b, pebblesdb.PresetPebblesDB)
	defer db.Close()
	val := make([]byte, 128)
	rand.New(rand.NewSource(1)).Read(val)
	var ctr atomic.Uint64
	b.SetBytes(16 + 128)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := make([]byte, 0, 16)
		for pb.Next() {
			i := ctr.Add(1)
			key = harness.KeyAt(key, i*2654435761)
			if err := db.Put(key, val); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkApplySync measures single-goroutine durable-commit latency: one
// fsync per commit, nothing to amortize against.
func BenchmarkApplySync(b *testing.B) {
	db := openBenchDB(b, pebblesdb.PresetPebblesDB)
	defer db.Close()
	val := make([]byte, 128)
	rand.New(rand.NewSource(1)).Read(val)
	key := make([]byte, 0, 16)
	batch := db.NewBatch()
	b.SetBytes(16 + 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		key = harness.KeyAt(key, uint64(i*2654435761))
		batch.Set(key, val)
		if err := db.Apply(batch, pebblesdb.Sync); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplySyncParallel measures durable commits from concurrent
// writers: the pipeline batches the WAL records of simultaneous committers
// and satisfies all their Sync requests with one amortized fsync (compare
// the syncs-per-commit metric against BenchmarkApplySync).
func BenchmarkApplySyncParallel(b *testing.B) {
	db := openBenchDB(b, pebblesdb.PresetPebblesDB)
	defer db.Close()
	val := make([]byte, 128)
	rand.New(rand.NewSource(1)).Read(val)
	var ctr atomic.Uint64
	b.SetBytes(16 + 128)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := make([]byte, 0, 16)
		batch := db.NewBatch()
		for pb.Next() {
			batch.Reset()
			i := ctr.Add(1)
			key = harness.KeyAt(key, i*2654435761)
			batch.Set(key, val)
			if err := db.Apply(batch, pebblesdb.Sync); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	m := db.Metrics()
	if m.SyncCommits > 0 {
		b.ReportMetric(m.SyncsPerCommit(), "syncs/commit")
		b.ReportMetric(m.CommitGroupSize(), "batches/group")
	}
}

// BenchmarkGet measures point-read latency on a pre-filled FLSM store.
func BenchmarkGet(b *testing.B) {
	db := openBenchDB(b, pebblesdb.PresetPebblesDB)
	defer db.Close()
	const n = 100_000
	if err := harness.FillRandom(db, n, n, 128, 1); err != nil {
		b.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	key := make([]byte, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = harness.KeyAt(key, uint64(rng.Intn(n)))
		if _, _, err := db.Get(key, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeek measures iterator seek latency on a compacted FLSM store.
func BenchmarkSeek(b *testing.B) {
	db := openBenchDB(b, pebblesdb.PresetPebblesDB)
	defer db.Close()
	const n = 100_000
	if err := harness.FillRandom(db, n, n, 128, 1); err != nil {
		b.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	key := make([]byte, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = harness.KeyAt(key, uint64(rng.Intn(n)))
		it, err := db.NewIter(nil)
		if err != nil {
			b.Fatal(err)
		}
		it.SeekGE(key)
		it.Close()
	}
}

// BenchmarkReverseScan measures reverse range queries (SeekLT + Prevs) on
// a compacted FLSM store — the v2 API's mirror of the paper's
// seek-then-nexts range query.
func BenchmarkReverseScan(b *testing.B) {
	db := openBenchDB(b, pebblesdb.PresetPebblesDB)
	defer db.Close()
	const n = 100_000
	if err := harness.FillRandom(db, n, n, 128, 1); err != nil {
		b.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	key := make([]byte, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = harness.KeyAt(key, uint64(rng.Intn(n)))
		it, err := db.NewIter(nil)
		if err != nil {
			b.Fatal(err)
		}
		it.SeekLT(key)
		for j := 0; j < 10 && it.Valid(); j++ {
			it.Prev()
		}
		it.Close()
	}
}

// BenchmarkBoundedScan measures short bounded range scans: the end key is
// pushed into the iterator as an upper bound so guards and sstables past
// it are pruned before IO.
func BenchmarkBoundedScan(b *testing.B) {
	db := openBenchDB(b, pebblesdb.PresetPebblesDB)
	defer db.Close()
	const n = 100_000
	if err := harness.FillRandom(db, n, n, 128, 1); err != nil {
		b.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	lo := make([]byte, 0, 16)
	hi := make([]byte, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := uint64(rng.Intn(n))
		lo = harness.KeyAt(lo, start)
		hi = harness.KeyAt(hi, start+10)
		it, err := db.NewIter(&pebblesdb.IterOptions{LowerBound: lo, UpperBound: hi})
		if err != nil {
			b.Fatal(err)
		}
		for it.First(); it.Valid(); it.Next() {
		}
		it.Close()
	}
}

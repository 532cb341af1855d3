package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/batch"
	"pebblesdb/internal/vfs"
)

func testConfig() *base.Config {
	return &base.Config{
		MemtableSize:   32 << 10,
		LevelBaseBytes: 128 << 10,
		TargetFileSize: 32 << 10,
		TopLevelBits:   8,
		BitDecrement:   1,
		NumLevels:      5,
	}
}

func openEngine(t *testing.T, fs vfs.FS, kind Kind) *Engine {
	t.Helper()
	e, err := Open(testConfig(), fs, "db", kind)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func bothKinds(t *testing.T, fn func(t *testing.T, kind Kind)) {
	t.Run("flsm", func(t *testing.T) { fn(t, KindFLSM) })
	t.Run("leveled", func(t *testing.T) { fn(t, KindLeveled) })
}

func TestBasicCRUD(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		e := openEngine(t, vfs.NewMem(), kind)
		defer e.Close()

		if err := e.Set([]byte("k"), []byte("v"), false); err != nil {
			t.Fatal(err)
		}
		v, ok, err := e.Get([]byte("k"), nil, nil)
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("get: %q %v %v", v, ok, err)
		}
		if err := e.Delete([]byte("k"), false); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := e.Get([]byte("k"), nil, nil); ok {
			t.Fatal("deleted key visible")
		}
	})
}

func TestBatchAtomicSequencing(t *testing.T) {
	e := openEngine(t, vfs.NewMem(), KindFLSM)
	defer e.Close()

	b := batch.New()
	b.Set([]byte("a"), []byte("1"))
	b.Set([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if err := e.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.Get([]byte("a"), nil, nil); ok {
		t.Fatal("within-batch delete should win (higher seq)")
	}
	if v, ok, _ := e.Get([]byte("b"), nil, nil); !ok || string(v) != "2" {
		t.Fatal("batch set lost")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		e := openEngine(t, vfs.NewMem(), kind)
		defer e.Close()

		e.Set([]byte("k"), []byte("v1"), false)
		snap := e.NewSnapshot()
		defer snap.Close()
		e.Set([]byte("k"), []byte("v2"), false)
		e.Set([]byte("only-after"), []byte("x"), false)

		if v, ok, _ := e.Get([]byte("k"), snap, nil); !ok || string(v) != "v1" {
			t.Fatalf("snapshot read: %q %v", v, ok)
		}
		if _, ok, _ := e.Get([]byte("only-after"), snap, nil); ok {
			t.Fatal("snapshot sees later write")
		}
		if v, _, _ := e.Get([]byte("k"), nil, nil); string(v) != "v2" {
			t.Fatal("latest read wrong")
		}
	})
}

func TestSnapshotSurvivesFlushAndCompaction(t *testing.T) {
	e := openEngine(t, vfs.NewMem(), KindFLSM)
	defer e.Close()

	e.Set([]byte("k"), []byte("v1"), false)
	snap := e.NewSnapshot()
	defer snap.Close()

	rng := rand.New(rand.NewSource(31))
	val := make([]byte, 256)
	for i := 0; i < 5000; i++ {
		rng.Read(val)
		e.Set([]byte(fmt.Sprintf("fill%06d", i)), val, false)
	}
	e.Set([]byte("k"), []byte("v2"), false)
	if err := e.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e.Get([]byte("k"), snap, nil); !ok || string(v) != "v1" {
		t.Fatalf("snapshot read after compaction: %q %v", v, ok)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		e := openEngine(t, vfs.NewMem(), kind)
		defer e.Close()

		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					k := fmt.Sprintf("w%d-key%05d", w, i)
					if err := e.Set([]byte(k), []byte("value-"+k), false); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for i := 0; i < 2000; i++ {
					k := fmt.Sprintf("w%d-key%05d", rng.Intn(4), rng.Intn(2000))
					v, ok, err := e.Get([]byte(k), nil, nil)
					if err != nil {
						errs <- err
						return
					}
					if ok && string(v) != "value-"+k {
						errs <- fmt.Errorf("torn read for %s: %q", k, v)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := e.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		// Verify every written key.
		for w := 0; w < 4; w++ {
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("w%d-key%05d", w, i)
				v, ok, err := e.Get([]byte(k), nil, nil)
				if err != nil || !ok || string(v) != "value-"+k {
					t.Fatalf("verify %s: %q %v %v", k, v, ok, err)
				}
			}
		}
	})
}

func TestIteratorDuringWrites(t *testing.T) {
	e := openEngine(t, vfs.NewMem(), KindFLSM)
	defer e.Close()

	for i := 0; i < 3000; i++ {
		e.Set([]byte(fmt.Sprintf("key%06d", i)), []byte("v"), false)
	}
	it, err := e.NewIter(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent writes while the iterator is open.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			e.Set([]byte(fmt.Sprintf("new%06d", i)), []byte("v"), false)
		}
	}()
	var prev []byte
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("iterator out of order: %q then %q", prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		n++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if n < 3000 {
		t.Fatalf("iterator saw %d keys, want >= 3000", n)
	}
}

func TestRecoveryFromWALOnly(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		fs := vfs.NewMem()
		e := openEngine(t, fs, kind)
		// Few writes: nothing flushed, everything in the WAL.
		for i := 0; i < 100; i++ {
			e.Set([]byte(fmt.Sprintf("k%03d", i)), []byte("v"), false)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		e2 := openEngine(t, fs, kind)
		defer e2.Close()
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("k%03d", i)
			v, ok, err := e2.Get([]byte(k), nil, nil)
			if err != nil || !ok || string(v) != "v" {
				t.Fatalf("recovered get %s: %q %v %v", k, v, ok, err)
			}
		}
	})
}

func TestCrashRecoveryDurability(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		fs := vfs.NewCrash()
		e, err := Open(testConfig(), fs, "db", kind)
		if err != nil {
			t.Fatal(err)
		}

		// Unsynced writes may be lost; synced writes must survive.
		for i := 0; i < 50; i++ {
			if err := e.Set([]byte(fmt.Sprintf("unsynced%03d", i)), []byte("v"), false); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if err := e.Set([]byte(fmt.Sprintf("synced%03d", i)), []byte("v"), true); err != nil {
				t.Fatal(err)
			}
		}
		// Simulate power loss without Close.
		fs.Crash()

		cfg2 := testConfig()
		e2, err := Open(cfg2, fs, "db", kind)
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		defer e2.Close()
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("synced%03d", i)
			if _, ok, err := e2.Get([]byte(k), nil, nil); err != nil || !ok {
				t.Fatalf("synced key %s lost after crash (ok=%v err=%v)", k, ok, err)
			}
		}
	})
}

func TestCrashDuringHeavyWrites(t *testing.T) {
	// Crash mid-workload with flushes and compactions in flight; the
	// store must reopen cleanly and serve all previously synced data.
	fs := vfs.NewCrash()
	cfg := testConfig()
	e, err := Open(cfg, fs, "db", KindFLSM)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	val := make([]byte, 128)
	var syncedKeys []string
	for i := 0; i < 8000; i++ {
		rng.Read(val)
		k := fmt.Sprintf("key%06d", rng.Intn(100000))
		sync := i%100 == 99
		if err := e.Set([]byte(k), val, sync); err != nil {
			t.Fatal(err)
		}
		if sync {
			syncedKeys = append(syncedKeys, k)
		}
	}
	e.WaitIdle()
	// One final synced marker: everything before it is durable.
	if err := e.Set([]byte("marker"), []byte("end"), true); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	e2, err := Open(testConfig(), fs, "db", KindFLSM)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer e2.Close()
	if _, ok, err := e2.Get([]byte("marker"), nil, nil); err != nil || !ok {
		t.Fatalf("marker lost: ok=%v err=%v", ok, err)
	}
	for _, k := range syncedKeys {
		if _, ok, err := e2.Get([]byte(k), nil, nil); err != nil || !ok {
			t.Fatalf("synced key %s lost: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestWriteStallsAreCounted(t *testing.T) {
	fs := vfs.NewMem()
	cfg := testConfig()
	cfg.MemtableSize = 4 << 10
	cfg.L0CompactionTrigger = 2
	cfg.L0SlowdownTrigger = 3
	cfg.L0StopTrigger = 5
	cfg.MaxCompactionConcurrency = 1
	e, err := Open(cfg, fs, "db", KindLeveled)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	val := make([]byte, 512)
	for i := 0; i < 4000; i++ {
		if err := e.Set([]byte(fmt.Sprintf("key%06d", i)), val, false); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.SlowdownWrites == 0 && m.StoppedWrites == 0 && m.MemtableWaits == 0 {
		t.Fatal("expected some write stalls under this configuration")
	}
	if m.Flushes == 0 {
		t.Fatal("expected flushes")
	}
}

func TestMetricsPopulated(t *testing.T) {
	e := openEngine(t, vfs.NewMem(), KindFLSM)
	defer e.Close()
	for i := 0; i < 3000; i++ {
		e.Set([]byte(fmt.Sprintf("key%06d", i)), make([]byte, 64), false)
	}
	e.CompactAll()
	m := e.Metrics()
	if m.Writes != 3000 {
		t.Fatalf("writes %d", m.Writes)
	}
	if m.WALBytes == 0 {
		t.Fatal("wal bytes should be counted")
	}
	if m.LastSeq != 3000 {
		t.Fatalf("last seq %d", m.LastSeq)
	}
	var total int64
	for _, b := range m.Tree.LevelBytes {
		total += b
	}
	if total == 0 {
		t.Fatal("tree should hold bytes after flush")
	}
}

func TestCloseRejectsFurtherOps(t *testing.T) {
	e := openEngine(t, vfs.NewMem(), KindFLSM)
	e.Set([]byte("k"), []byte("v"), false)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Set([]byte("k2"), []byte("v"), false); err == nil {
		t.Fatal("write after close should fail")
	}
	if _, _, err := e.Get([]byte("k"), nil, nil); err == nil {
		t.Fatal("get after close should fail")
	}
	if err := e.Close(); err != ErrClosed {
		t.Fatalf("double close: %v", err)
	}
}

func TestFlushIsDurableWithoutWAL(t *testing.T) {
	// After an explicit Flush, data must survive even if the WAL is
	// discarded (it lives in sstables + manifest).
	fs := vfs.NewCrash()
	e, err := Open(testConfig(), fs, "db", KindFLSM)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		e.Set([]byte(fmt.Sprintf("k%04d", i)), []byte("v"), false)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	e2, err := Open(testConfig(), fs, "db", KindFLSM)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%04d", i)
		if _, ok, err := e2.Get([]byte(k), nil, nil); err != nil || !ok {
			t.Fatalf("flushed key %s lost: ok=%v err=%v", k, ok, err)
		}
	}
}

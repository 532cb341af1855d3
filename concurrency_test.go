package pebblesdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pebblesdb/internal/vfs"
)

// TestConcurrentCompactionStress saturates the parallel compaction
// scheduler under the race detector: several writer goroutines hammer an
// FLSM store and a leveled store with the same partitioned workload
// (point writes, deletes and range deletes), then the two stores and an
// in-memory model must agree key-for-key. Tiny memtables, single-guard
// compaction units and an elevated worker count keep many compaction
// units in flight on both trees for the whole run, so claim/release,
// shared output partitions and ordered manifest appends are all exercised
// concurrently. Skipped in -short; CI runs it with -race as a dedicated
// step.
func TestConcurrentCompactionStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}

	newOpts := func(p Preset) *Options {
		o := p.Options()
		o.WithFS(vfs.NewMem())
		// Shred the store into many small units so the scheduler always
		// has claimable work and workers overlap.
		o.MemtableSize = 16 << 10
		o.LevelBaseBytes = 32 << 10
		o.TargetFileSize = 8 << 10
		o.TopLevelBits = 6
		o.BitDecrement = 1
		o.MaxSSTablesPerGuard = 2
		o.L0CompactionTrigger = 2
		o.L0SlowdownTrigger = 16
		o.L0StopTrigger = 24
		o.MaxCompactionConcurrency = 4
		o.CompactionUnitGuards = 1
		return o
	}
	flsmDB, err := Open("flsm", newOpts(PresetPebblesDB))
	if err != nil {
		t.Fatal(err)
	}
	defer flsmDB.Close()
	levDB, err := Open("leveled", newOpts(PresetHyperLevelDB))
	if err != nil {
		t.Fatal(err)
	}
	defer levDB.Close()

	// Each goroutine owns a key-space partition (its own prefix), so the
	// cross-store interleaving of other goroutines cannot change its final
	// state and the three replicas stay comparable.
	const writers = 4
	const opsPerWriter = 3000
	models := make([]map[string]string, writers)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for g := 0; g < writers; g++ {
		g := g
		models[g] = make(map[string]string)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			model := models[g]
			key := func(i int) string { return fmt.Sprintf("w%d-%04d", g, i) }
			for i := 0; i < opsPerWriter; i++ {
				switch n := rng.Intn(10); {
				case n < 7: // point write
					k := key(rng.Intn(500))
					v := fmt.Sprintf("v%d-%d", g, i)
					if err := flsmDB.Put([]byte(k), []byte(v)); err != nil {
						errCh <- err
						return
					}
					if err := levDB.Put([]byte(k), []byte(v)); err != nil {
						errCh <- err
						return
					}
					model[k] = v
				case n < 9: // point delete
					k := key(rng.Intn(500))
					if err := flsmDB.Delete([]byte(k)); err != nil {
						errCh <- err
						return
					}
					if err := levDB.Delete([]byte(k)); err != nil {
						errCh <- err
						return
					}
					delete(model, k)
				default: // range delete over a small interval
					lo := rng.Intn(480)
					hi := lo + 1 + rng.Intn(20)
					start, end := key(lo), key(hi)
					if err := flsmDB.DeleteRange([]byte(start), []byte(end)); err != nil {
						errCh <- err
						return
					}
					if err := levDB.DeleteRange([]byte(start), []byte(end)); err != nil {
						errCh <- err
						return
					}
					for k := range model {
						if k >= start && k < end {
							delete(model, k)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for _, db := range []*DB{flsmDB, levDB} {
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		// What the scheduler left behind must be a tree a Get can trust:
		// every guard in age order.
		if err := db.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	// Fold the per-writer models and compare all three replicas.
	model := make(map[string]string)
	for _, m := range models {
		for k, v := range m {
			model[k] = v
		}
	}
	for name, db := range map[string]*DB{"flsm": flsmDB, "leveled": levDB} {
		it, err := db.NewIter(nil)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for it.First(); it.Valid(); it.Next() {
			k, v := string(it.Key()), string(it.Value())
			if want, ok := model[k]; !ok {
				t.Errorf("%s: scan yielded key %q not in model", name, k)
			} else if v != want {
				t.Errorf("%s: key %q = %q, model %q", name, k, v, want)
			}
			count++
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		if count != len(model) {
			t.Errorf("%s: scan yielded %d keys, model has %d", name, count, len(model))
		}
	}

	fm := flsmDB.Metrics()
	t.Logf("flsm: %d units, peak %d inflight, intra-level peak %d, %d conflicts",
		fm.Tree.CompactionUnits, fm.Tree.PeakUnitsInflight,
		fm.Tree.MaxLevelParallelism(), fm.Tree.ClaimConflicts)
	if fm.Tree.CompactionUnits == 0 {
		t.Error("flsm scheduler claimed no units under sustained load")
	}
	lm := levDB.Metrics()
	t.Logf("leveled: %d units, peak %d inflight, intra-level peak %d, %d conflicts",
		lm.Tree.CompactionUnits, lm.Tree.PeakUnitsInflight,
		lm.Tree.MaxLevelParallelism(), lm.Tree.ClaimConflicts)
	if lm.Tree.CompactionUnits == 0 {
		t.Error("leveled scheduler claimed no units under sustained load")
	}
}

package flsm

import (
	"fmt"
	"math/rand"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/sstable"
)

// BenchmarkTreeGet measures the FLSM point-lookup path (bloom checks,
// userKeyInRange, guard binary search) against a multi-level tree. Run
// with -benchmem: it pins the allocs/op of Get so hot-path regressions
// (like a range check that starts allocating) show up immediately.
// History: 10 allocs/op through PR 3; the PR 4 pooled get-scratch rebuild
// (block cursors, search key and candidate tracking all reuse pooled
// buffers, values alias block payloads) brought it to 0 allocs/op on a
// warm cache, ~700 ns/op in this configuration.
//
// Two stores, each reporting the tables a Get searched (GetStats): one
// version per key, compacted to rest; and three versions per key with a
// guard cap of four, which leaves every key in all three tables of its
// last-level guard — the bloom filters pass for all three, and what the
// descent saves by stopping at the newest is the whole difference (3
// tables searched per Get before guards kept age order, 1 since).
func BenchmarkTreeGet(b *testing.B) {
	for _, bc := range []struct {
		name             string
		versions, maxSST int
	}{
		{"compacted", 1, 3},
		{"three-tables-per-guard", 3, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := testConfig()
			cfg.MaxSSTablesPerGuard = bc.maxSST
			tree := openTree(b, cfg, &fakeHost{smallest: base.MaxSeqNum})
			defer tree.Close()

			const numKeys = 20000
			var seq base.SeqNum
			keys := make([][]byte, numKeys)
			for version := 0; version < bc.versions; version++ {
				// Several flush batches so lookups traverse L0 files and
				// guarded levels, then compact into steady state.
				for batch := 0; batch < 10; batch++ {
					mem := memtable.New()
					for i := batch; i < numKeys; i += 10 {
						k := []byte(fmt.Sprintf("user%08d", i))
						keys[i] = k
						seq++
						mem.Set(k, seq, base.KindSet, []byte(fmt.Sprintf("val%08d", i)))
						tree.Ingest(k)
					}
					if err := tree.Flush(mem.NewIter(), nil, 0, seq); err != nil {
						b.Fatal(err)
					}
				}
				if err := tree.CompactAll(); err != nil {
					b.Fatal(err)
				}
			}

			rng := rand.New(rand.NewSource(7))
			s := sstable.AcquireGetScratch()
			defer sstable.ReleaseGetScratch(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[rng.Intn(numKeys)]
				_, found, err := tree.Get(k, base.MaxSeqNum, nil, s)
				if err != nil {
					b.Fatal(err)
				}
				if !found {
					b.Fatalf("key %s missing", k)
				}
			}
			b.ReportMetric(float64(s.Stats.TablesProbed)/float64(b.N), "tables-probed/op")
		})
	}
}

package flsm

import (
	"fmt"
	"math/rand"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/memtable"
)

// BenchmarkTreeGet measures the FLSM point-lookup path (bloom checks,
// userKeyInRange, guard binary search) against a multi-level tree. Run
// with -benchmem: it pins the allocs/op of Get so hot-path regressions
// (like a range check that starts allocating) show up immediately.
// History: 10 allocs/op through PR 3; the PR 4 pooled get-scratch rebuild
// (block cursors, search key and candidate tracking all reuse pooled
// buffers, values alias block payloads) brought it to 0 allocs/op on a
// warm cache, ~700 ns/op in this configuration.
func BenchmarkTreeGet(b *testing.B) {
	tree := openTree(b, testConfig(), &fakeHost{smallest: base.MaxSeqNum})
	defer tree.Close()

	const numKeys = 20000
	var seq base.SeqNum
	keys := make([][]byte, numKeys)
	// Several flush batches so lookups traverse L0 files and guarded
	// levels, then compact into steady state.
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

	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[rng.Intn(numKeys)]
		_, found, err := tree.Get(k, base.MaxSeqNum, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !found {
			b.Fatalf("key %s missing", k)
		}
	}
}

package cache

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pebblesdb/internal/race"
)

func TestGetSetBasics(t *testing.T) {
	c := New(1 << 20)
	k := Key{File: 1, Off: 0}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache should miss")
	}
	c.Set(k, []byte("value"), 5)
	v, ok := c.Get(k)
	if !ok || string(v) != "value" {
		t.Fatal("get after set failed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.UsedBytes != 5 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReplaceUpdatesCharge(t *testing.T) {
	c := New(1 << 20)
	k := Key{File: 1}
	c.Set(k, []byte("a"), 10)
	c.Set(k, []byte("b"), 20)
	if v, _ := c.Get(k); string(v) != "b" {
		t.Fatal("replace failed")
	}
	if st := c.Stats(); st.UsedBytes != 20 || st.Entries != 1 {
		t.Fatalf("stats after replace: %+v", st)
	}
}

func TestEvictionHoldsCapacity(t *testing.T) {
	// Total capacity small enough that every shard holds at most one
	// 10-byte entry.
	c := New(numShards * 10)
	for i := uint64(0); i < 100; i++ {
		c.Set(Key{File: i}, []byte{byte(i)}, 10)
	}
	st := c.Stats()
	if st.Entries == 0 || st.Entries > numShards || st.UsedBytes != int64(st.Entries)*10 {
		t.Fatalf("stats after 100 inserts: %+v", st)
	}
	// Within a shard the survivor is the most recently set key.
	if v, ok := c.Get(Key{File: 99}); !ok || v[0] != 99 {
		t.Fatal("most recent insert was evicted")
	}
}

func TestDeleteFile(t *testing.T) {
	c := New(1 << 20)
	c.Set(Key{File: 1, Off: 0}, []byte("a"), 1)
	c.Set(Key{File: 1, Off: 100}, []byte("b"), 1)
	c.Set(Key{File: 2, Off: 0}, []byte("c"), 1)
	c.Set(Key{File: 3, Off: 0}, []byte("d"), 1)
	c.Set(Key{File: 3, Off: 100}, []byte("e"), 1)

	// One call drops two files and keeps the third's blocks.
	c.DeleteFiles(1, 3)
	for _, k := range []Key{{File: 1, Off: 0}, {File: 1, Off: 100}, {File: 3, Off: 0}, {File: 3, Off: 100}} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("DeleteFiles left %+v", k)
		}
	}
	if _, ok := c.Get(Key{File: 2, Off: 0}); !ok {
		t.Fatal("DeleteFiles removed another file's entry")
	}
	if st := c.Stats(); st.Entries != 1 || st.UsedBytes != 1 {
		t.Fatalf("stats after DeleteFiles: %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1024)
	val := []byte("v")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{File: uint64(i % 100), Off: uint64(g)}
				if i%3 == 0 {
					c.Set(k, val, 4)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSetEvictDoesNotAllocate pins the insert budget of DESIGN.md
// "Allocation budget per layer": a full cache takes a block on the entry its
// eviction freed.
func TestSetEvictDoesNotAllocate(t *testing.T) {
	c := New(numShards * 64)
	block := make([]byte, 8)
	for i := uint64(0); i < 1024; i++ {
		c.Set(Key{File: 1, Off: i}, block, 8)
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(2000, func() {
		c.Set(Key{File: 2, Off: i}, block, 8)
		i++
	}); n != 0 {
		t.Fatalf("Set into a full cache: %v allocs/op, want 0", n)
	}
}

// BenchmarkSetEvict is the block cache's miss path: a full cache takes a
// block and drops one its small FIFO holds unread.
func BenchmarkSetEvict(b *testing.B) {
	const blockSize = 4 << 10
	c := New(1 << 20)
	block := make([]byte, blockSize)
	for i := 0; i < 1024; i++ {
		c.Set(Key{File: 1, Off: uint64(i) * blockSize}, block, blockSize)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Set(Key{File: 2, Off: uint64(i) * blockSize}, block, blockSize)
	}
}

// BenchmarkAcquireHit is the block cache's hit path: a lookup that finds the
// block, counts the read and hands out a reference, and its Release.
func BenchmarkAcquireHit(b *testing.B) {
	const blockSize = 4 << 10
	const resident = 128
	c := New(1 << 20)
	for i := 0; i < resident; i++ {
		put(c, Key{File: 1, Off: uint64(i) * blockSize}, blockSize, 0)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c.Acquire(Key{File: 1, Off: uint64(i%resident) * blockSize}).Release()
		i++
	}
}

// fill returns a buffer of n bytes from the pool, every byte v, with the
// caller's one reference.
func fill(n int, v byte) *Buf {
	b := Alloc(n)
	p := b.Bytes()
	for i := range p {
		p[i] = v
	}
	return b
}

// put caches a block of n bytes, every byte v, under k, as a read that
// missed does: the cache is left the only holder.
func put(c *Cache, k Key, n int, v byte) {
	b := fill(n, v)
	c.Insert(k, b, int64(n))
	b.Release()
}

// read is a reader's hit or miss on k: it reports whether the block was
// cached, and lets go of it at once.
func read(c *Cache, k Key) bool {
	b := c.Acquire(k)
	b.Release()
	return b != nil
}

// holds reports whether every byte of p is v.
func holds(p []byte, v byte) bool {
	for _, c := range p {
		if c != v {
			return false
		}
	}
	return len(p) > 0
}

// sameShard returns n keys of file numbers from first up that land in k's
// shard.
func sameShard(c *Cache, k Key, first uint64, n int) []Key {
	var keys []Key
	for f := first; len(keys) < n; f++ {
		if o := (Key{File: f}); c.shard(o) == c.shard(k) {
			keys = append(keys, o)
		}
	}
	return keys
}

// TestHolderOutlivesItsEntry: a reader that acquired a block keeps reading
// the bytes it acquired after the cache has evicted the entry, replaced it
// and deleted its file, while other goroutines push blocks of the same size
// class through the cache — each of which is recycled (or, under the race
// detector, poisoned) the moment nobody holds it. The reader's block may be
// neither.
func TestHolderOutlivesItsEntry(t *testing.T) {
	const size = 4000
	c := New(numShards * 2 * size)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := Key{File: uint64(100 + g), Off: uint64(i % 64)}
				v := byte(k.Off)
				if b := c.Acquire(k); b != nil {
					if !holds(b.Bytes(), v) {
						t.Errorf("block %v read back wrong while held", k)
					}
					b.Release()
					continue
				}
				put(c, k, size, v)
			}
		}(g)
	}

	k := Key{File: 1, Off: 7}
	drop := map[string]func(){
		// Each flood block is read twice after its insert, as a block of the
		// hot set is: it earns its way into main and outlasts the held
		// entry there, which was read once.
		"evicted": func() {
			for i := 0; i < 8*numShards; i++ {
				f := Key{File: 2, Off: uint64(i)}
				put(c, f, size, 0xEE)
				read(c, f)
				read(c, f)
			}
		},
		"replaced": func() { put(c, k, size, 0x22) },
		"deleted":  func() { c.DeleteFiles(k.File) },
	}
	for name, dropEntry := range drop {
		put(c, k, size, 0x11)
		held := c.Acquire(k)
		if held == nil {
			t.Fatalf("%s: the block just inserted is not cached", name)
		}
		dropEntry()
		if now := c.Acquire(k); now == held {
			t.Fatalf("%s: the entry is still there", name)
		} else {
			now.Release()
		}
		// Give the churn time to take the buffer, had it been let go.
		for i := 0; i < 200; i++ {
			fill(size, 0x33).Release()
		}
		if !holds(held.Bytes(), 0x11) {
			t.Fatalf("%s: a held block changed under its holder", name)
		}
		held.Release()
	}
	close(stop)
	churn.Wait()
}

// TestInsertKeepsTheBlockItAdds: a block larger than the small FIFO's share
// of its shard, inserted when every other block of the shard has been read,
// is cached — the others make room. Plain S3-FIFO moves them to main and then
// evicts the newcomer, alone in the small FIFO and unread. A block larger
// than the whole shard is not cached and evicts nothing.
func TestInsertKeepsTheBlockItAdds(t *testing.T) {
	const per = 1000
	c := New(numShards * per)
	k := Key{File: 1}
	others := sameShard(c, k, 2, 10)
	for _, o := range others {
		put(c, o, per/10, 1)
		read(c, o)
	}
	put(c, k, 3*per/10, 2)
	if !read(c, k) {
		t.Fatal("a block three tenths of its shard was evicted by its own insert")
	}
	if st := c.Stats(); st.UsedBytes > numShards*per || st.Entries != 8 {
		t.Fatalf("after the insert: %+v, want k and 7 of the 10 others", st)
	}
	huge := sameShard(c, k, 10_000, 1)[0]
	put(c, huge, per+1, 3)
	if read(c, huge) {
		t.Fatal("a block larger than its shard was cached")
	}
	if st := c.Stats(); st.Entries != 8 {
		t.Fatalf("a block too large to cache evicted others: %+v", st)
	}
}

// TestOneHitFloodKeepsHotSet is the policy's reason to exist: a hot set of a
// quarter of the cache, each block read again every 1024 inserts, survives a
// flood of four times the cache in blocks read once. An LRU keeps a block
// only while fewer than a shard's worth of others arrive between two of its
// reads, so the flood pushes the hot set out of it; here the flood passes
// through the small FIFO and the hot set sits in main.
func TestOneHitFloodKeepsHotSet(t *testing.T) {
	const (
		size     = 100
		perShard = 64 // blocks
	)
	c := New(numShards * perShard * size)
	hot := make([]Key, numShards*perShard/4)
	for i := range hot {
		hot[i] = Key{File: 1, Off: uint64(i)}
		put(c, hot[i], size, 1)
		read(c, hot[i])
	}
	for i := 0; i < 4*numShards*perShard; i++ {
		put(c, Key{File: 2, Off: uint64(i)}, size, 2)
		if i%4 == 0 {
			read(c, hot[i/4%len(hot)])
		}
	}
	lost := 0
	for _, k := range hot {
		if !read(c, k) {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("the one-hit flood evicted %d of the %d hot blocks", lost, len(hot))
	}
}

// TestGhostReadmitsToMain: a block that left the small FIFO unread and is
// inserted again soon after goes to main, where a flood of blocks read once
// does not reach it; the same block inserted for the first time does not
// survive that flood, and one the ghost has long forgotten is treated as new.
func TestGhostReadmitsToMain(t *testing.T) {
	const (
		size     = 100
		perShard = 20 // blocks
	)
	c := New(numShards * perShard * size)
	k := Key{File: 1}
	flood := sameShard(c, k, 1000, 8*perShard)
	next := 0
	floodShard := func(n int) {
		for ; n > 0; n-- {
			put(c, flood[next], size, 2)
			next++
		}
	}

	put(c, k, size, 1)
	floodShard(perShard) // k leaves the small FIFO unread
	if st := c.Stats(); st.EvictedUnread == 0 || read(c, k) {
		t.Fatalf("k survived a flood of a shard's worth unread: %+v", st)
	}
	put(c, k, size, 1)
	if st := c.Stats(); st.Readmitted != 1 {
		t.Fatalf("the ghost did not recognise k: %+v", st)
	}
	floodShard(3 * perShard)
	if !read(c, k) {
		t.Fatal("a readmitted block was evicted by blocks read once")
	}

	// A fresh block goes to the small FIFO, and the flood takes it.
	fresh := sameShard(c, k, 2, 1)[0]
	put(c, fresh, size, 3)
	floodShard(perShard)
	if read(c, fresh) {
		t.Fatal("a block inserted once survived the flood: it went to main")
	}
	// fresh is in the ghost now; once as many blocks again have left the
	// small FIFO unread as the shard holds, the ghost has forgotten it.
	floodShard(2 * perShard)
	before := c.Stats().Readmitted
	put(c, fresh, size, 3)
	if st := c.Stats(); st.Readmitted != before {
		t.Fatalf("the ghost remembered a block evicted %d blocks ago: %+v", 2*perShard, st)
	}
}

// TestGhostAgainstModel drives the ghost's ring and index with hashes whose
// top bits collide often — long runs in the index, backward shifts across
// its end — and checks every answer against a plain list of slots in
// arrival order.
func TestGhostAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hash := func() uint64 { return uint64(rng.Intn(8))<<61 | uint64(rng.Intn(64))<<1 | 1 }
	var g ghost
	// The model: the ring's slots oldest first, 0 for one readmitted.
	var slots []uint64
	ring, entries := 0, 1
	readmit := func(step int, h uint64) {
		i := slices.Index(slots, h)
		if i >= 0 {
			slots[i] = 0
		}
		if got := g.readmit(h); got != (i >= 0) {
			t.Fatalf("step %d: readmit(%x) = %v, the model says %v", step, h, got, i >= 0)
		}
	}
	for step := 0; step < 20000; step++ {
		if rng.Intn(2) == 0 {
			readmit(step, hash())
			continue
		}
		if rng.Intn(200) == 0 {
			entries += rng.Intn(8)
		}
		if entries > ring {
			// The ring grows to the shard's entry count, keeping what it
			// remembers in order.
			slots = slices.DeleteFunc(slots, func(s uint64) bool { return s == 0 })
			ring = entries
		}
		// A full ring forgets its oldest slot, then takes h unless h is
		// remembered already.
		h := hash()
		if len(slots) == ring {
			slots[0] = 0
		}
		if !slices.Contains(slots, h) {
			if slots = append(slots, h); len(slots) > ring {
				slots = slots[1:]
			}
		}
		g.add(h, entries)
	}
	for top := uint64(0); top < 8; top++ {
		for low := uint64(0); low < 64; low++ {
			readmit(-1, top<<61|low<<1|1)
		}
	}
}

// zipf draws ranks in [0, n) with P(rank) ~ 1/(rank+1)^theta, theta < 1,
// by Gray et al.'s method (as bench/gen.go and YCSB do).
type zipf struct{ n, theta, alpha, zetan, eta float64 }

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+math.Pow(0.5, z.theta):
		return 1
	}
	return min(int(z.n*math.Pow(z.eta*u-z.eta+1, z.alpha)), int(z.n)-1)
}

const (
	replayReads = 400_000
	// replayLRUMisses is what the 16-shard LRU this cache replaced missed
	// on replay's stream: measured once, on the parent commit of ISSUE 21.
	replayLRUMisses = 159_020
)

// replay reads replayReads blocks through c, a cache the size of the
// benchmark's, and fills every miss, as a Get does. The stream is shaped
// like read-zipf's on the benchmark's loaded store: nine reads in ten are
// zipfian (theta 0.99) over 18 000 blocks, the store's 500 000 keys at 28 a
// block, ranked so hot keys share blocks; the tenth reads a block nobody
// reads again. It returns the misses.
func replay(c *Cache) (misses int) {
	const (
		blocks     = 18_000
		blockBytes = 4300
	)
	r := rand.New(rand.NewSource(7))
	z := newZipf(blocks, 0.99)
	var once uint64
	for i := 0; i < replayReads; i++ {
		var k Key
		if r.Float64() < 0.1 {
			k = Key{File: 1<<20 + once/8, Off: once % 8 * blockBytes}
			once++
		} else {
			b := uint64(z.draw(r))
			k = Key{File: 1 + b/8, Off: b % 8 * blockBytes}
		}
		if read(c, k) {
			continue
		}
		misses++
		// The payload's size does not matter to the policy, its charge does.
		b := Alloc(1)
		c.Insert(k, b, blockBytes)
		b.Release()
	}
	return misses
}

// TestReplayMissesBelowLRU holds the policy to ISSUE 21's claim on a
// seeded stream: at least 15 % fewer misses than the LRU it replaced. The
// stream is deterministic, and so is the count.
func TestReplayMissesBelowLRU(t *testing.T) {
	misses := replay(New(8 << 20))
	ratio := float64(misses) / replayLRUMisses
	t.Logf("%d misses of %d reads, %.3f of the LRU's %d", misses, replayReads, ratio, replayLRUMisses)
	if ratio > 0.85 {
		t.Fatalf("%d misses, %.3f of the LRU's %d: want at most 0.85", misses, ratio, replayLRUMisses)
	}
}

// BenchmarkReplay times replay's stream, a read and on a miss an insert at
// a time, and reports its miss ratio.
func BenchmarkReplay(b *testing.B) {
	var misses int
	for i := 0; i < b.N; i++ {
		misses = replay(New(8 << 20))
	}
	b.ReportMetric(float64(misses)/replayReads, "miss_ratio")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/replayReads, "ns/read")
}

// TestHeldCountsOtherHolders: the walk counts entries a reader holds, and
// none once every reader has let go.
func TestHeldCountsOtherHolders(t *testing.T) {
	c := New(1 << 20)
	put(c, Key{File: 1}, 100, 1)
	put(c, Key{File: 2}, 100, 2)
	a, b := c.Acquire(Key{File: 1}), c.Acquire(Key{File: 1})
	if n := c.Held(); n != 1 {
		t.Fatalf("Held = %d with one entry read twice, want 1", n)
	}
	a.Release()
	b.Release()
	if n := c.Held(); n != 0 {
		t.Fatalf("Held = %d with no reader, want 0", n)
	}
}

// TestLastReleaseRecyclesOrPoisons pins what becomes of a buffer nobody
// holds: the next Alloc of its size class gets it, without allocating, or —
// under the race detector — nobody does and it reads 0xCC from then on, so
// that a holder that kept reading shows up in any test that checks what it
// reads.
func TestLastReleaseRecyclesOrPoisons(t *testing.T) {
	b := fill(4000, 0x44)
	stale := b.Bytes() // kept past the release on purpose
	c := New(1 << 20)
	c.Insert(Key{File: 1}, b, 4000)
	b.Release()
	if !holds(stale, 0x44) {
		t.Fatal("the cache's reference did not keep the block")
	}
	c.DeleteFiles(1)
	if race.Enabled {
		if !holds(stale, 0xCC) {
			t.Fatal("a block nobody holds was not poisoned")
		}
		return
	}
	if n := testing.AllocsPerRun(1000, func() { Alloc(4000).Release() }); n != 0 {
		t.Fatalf("Alloc after Release: %v allocs/op, want the released buffer", n)
	}
	// A payload above the largest class is not pooled, in or out.
	if n := testing.AllocsPerRun(10, func() { Alloc(numClasses*classBytes + 1).Release() }); n == 0 {
		t.Fatal("a buffer above the largest size class came out of a pool")
	}
}

// TestReleaseBelowZeroPanics: one Release too many is a holder's bug in
// every build, not only where buffers are poisoned.
func TestReleaseBelowZeroPanics(t *testing.T) {
	b := Alloc(10 * classBytes) // a class no other test draws from
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a Release below zero went through")
		}
	}()
	b.Release()
}

// TestInsertEvictDoesNotAllocate is the product path's miss: a block from
// the pool goes into a full cache, whose eviction hands the next miss its
// buffer.
func TestInsertEvictDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("under the race detector released buffers are poisoned, not reused")
	}
	const size = 4000
	c := New(numShards * 4 * size)
	i := uint64(0)
	miss := func() {
		put(c, Key{File: 1, Off: i}, size, 0)
		i++
	}
	for i < 1024 {
		miss()
	}
	if n := testing.AllocsPerRun(2000, miss); n != 0 {
		t.Fatalf("Insert into a full cache: %v allocs/op, want 0", n)
	}
}

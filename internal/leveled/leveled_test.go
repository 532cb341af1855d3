package leveled

import (
	"fmt"
	"math/rand"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/treebase/coretest"
	"pebblesdb/internal/vfs"
)

type fakeHost struct {
	smallest base.SeqNum
}

func (h *fakeHost) SmallestSnapshot() base.SeqNum { return h.smallest }
func (h *fakeHost) CommittedSeq() base.SeqNum     { return 0 }
func (h *fakeHost) ScheduleCompaction()           {}

func testConfig() *base.Config {
	cfg := &base.Config{
		MemtableSize:   32 << 10,
		LevelBaseBytes: 64 << 10,
		TargetFileSize: 16 << 10,
		NumLevels:      5,
	}
	cfg.EnsureDefaults()
	return cfg
}

// testTree pairs a tree with its leveled layout for white-box tests.
type testTree struct {
	*treebase.Core
	l *layout
}

// pinned returns the current version — the view the core reads. The
// white-box tests drive the tree from one goroutine, so the layout's state
// is read without the core's lock.
func (t *testTree) pinned() *version { return t.l.cur }

func openTestTree(t *testing.T) (*testTree, *fakeHost) {
	t.Helper()
	return openTree(t, testConfig())
}

func openTree(t *testing.T, cfg *base.Config) (*testTree, *fakeHost) {
	t.Helper()
	host := &fakeHost{smallest: base.MaxSeqNum}
	tree := &testTree{l: newLayout(cfg)}
	var err error
	tree.Core, err = treebase.Open(kind, cfg, vfs.NewMem(), "db", host, tree.l, tree.l.cur)
	if err != nil {
		t.Fatal(err)
	}
	return tree, host
}

func flushBatch(t *testing.T, tree *testTree, kvs map[string]string, seq *base.SeqNum) {
	t.Helper()
	mem := memtable.New()
	for k, v := range kvs {
		*seq++
		mem.Set([]byte(k), *seq, base.KindSet, []byte(v))
	}
	if err := tree.Flush(mem.NewIter(), nil, tree.NewFileNum(), *seq); err != nil {
		t.Fatal(err)
	}
}

// checkDisjoint verifies the core leveled invariant — levels >= 1 hold
// sstables with pairwise-disjoint user-key ranges, sorted by key — which is
// what Core.CheckInvariants checks of one-table groups.
func checkDisjoint(t *testing.T, tree *testTree) {
	t.Helper()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionMaintainsDisjointLevels(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	rng := rand.New(rand.NewSource(21))
	seq := base.SeqNum(0)
	expect := map[string]string{}
	for b := 0; b < 20; b++ {
		kvs := map[string]string{}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("key%07d", rng.Intn(100000))
			v := fmt.Sprintf("val%d-%d", b, i)
			kvs[k] = v
			expect[k] = v
		}
		flushBatch(t, tree, kvs, &seq)
	}
	if err := tree.CompactAll(); err != nil {
		t.Fatal(err)
	}
	checkDisjoint(t, tree)

	for k, v := range expect {
		got, found, err := tree.Get([]byte(k), base.MaxSeqNum, nil, nil)
		if err != nil || !found || string(got) != v {
			t.Fatalf("get %q: %q found=%v err=%v", k, got, found, err)
		}
	}
}

func TestTrivialMoveOnSequentialData(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	seq := base.SeqNum(0)
	// Sequential, non-overlapping flushes: compaction should move files
	// without rewriting (§4.5: the LSM fast path FLSM forgoes).
	for b := 0; b < 30; b++ {
		kvs := map[string]string{}
		for i := 0; i < 400; i++ {
			kvs[fmt.Sprintf("key%08d", b*1000+i)] = "value-payload-xxxxxxxxxxxxxxxx"
		}
		flushBatch(t, tree, kvs, &seq)
	}
	tree.CompactAll()
	m := tree.Metrics()
	if m.TrivialMoves == 0 {
		t.Fatal("sequential workload should produce trivial moves")
	}
	checkDisjoint(t, tree)
}

func TestL0NewestWins(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	seq := base.SeqNum(0)
	flushBatch(t, tree, map[string]string{"k": "old"}, &seq)
	flushBatch(t, tree, map[string]string{"k": "new"}, &seq)
	v, found, err := tree.Get([]byte("k"), base.MaxSeqNum, nil, nil)
	if err != nil || !found || string(v) != "new" {
		t.Fatalf("get: %q %v %v", v, found, err)
	}
}

func TestTombstoneShadowsOlderLevels(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	seq := base.SeqNum(0)
	flushBatch(t, tree, map[string]string{"k": "v"}, &seq)
	tree.CompactAll()

	mem := memtable.New()
	seq++
	mem.Set([]byte("k"), seq, base.KindDelete, nil)
	if err := tree.Flush(mem.NewIter(), nil, tree.NewFileNum(), seq); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := tree.Get([]byte("k"), base.MaxSeqNum, nil, nil); found {
		t.Fatal("tombstone in L0 must shadow deeper value")
	}
}

func TestLevelIterConcatenates(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	rng := rand.New(rand.NewSource(22))
	seq := base.SeqNum(0)
	seen := map[string]bool{}
	for b := 0; b < 15; b++ {
		kvs := map[string]string{}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("key%06d", rng.Intn(50000))
			kvs[k] = "v"
			seen[k] = true
		}
		flushBatch(t, tree, kvs, &seq)
	}
	tree.CompactAll()

	st, iters, _, err := tree.NewIters(treebase.IterRequest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	m := iterator.NewMerging(base.InternalCompare, iters...)
	defer m.Close()
	distinct := map[string]bool{}
	var prev []byte
	for m.First(); m.Valid(); m.Next() {
		if prev != nil && base.InternalCompare(prev, m.Key()) > 0 {
			t.Fatal("merged iterator out of order")
		}
		prev = append(prev[:0], m.Key()...)
		distinct[string(base.UserKey(m.Key()))] = true
	}
	if len(distinct) != len(seen) {
		t.Fatalf("saw %d keys, want %d", len(distinct), len(seen))
	}
}

func TestSeekCompactionTriggers(t *testing.T) {
	cfg := testConfig()
	cfg.SeekCompactionThreshold = 10
	tree, _ := openTree(t, cfg)
	defer tree.Close()
	seq := base.SeqNum(0)

	// Two overlapping runs in different levels so gets touch two files.
	kvs := map[string]string{}
	for i := 0; i < 2000; i++ {
		kvs[fmt.Sprintf("key%06d", i)] = "v1"
	}
	flushBatch(t, tree, kvs, &seq)
	tree.CompactAll()
	kvs2 := map[string]string{}
	for i := 0; i < 2000; i++ {
		kvs2[fmt.Sprintf("key%06d", i)] = "v2"
	}
	flushBatch(t, tree, kvs2, &seq)

	// Hammer gets on keys that miss in the newer file region: each get
	// that examines an extra file charges seek budget.
	for i := 0; i < 300000; i++ {
		tree.Get([]byte(fmt.Sprintf("key%06d", i%2000)), base.MaxSeqNum, nil, nil)
		if len(tree.l.seekPending) > 0 {
			return // a seek compaction was scheduled
		}
	}
	t.Skip("seek budget not exhausted in this configuration")
}

// TestObsoleteFilesRemoved: once no read holds them, the tables the
// compactions deleted are gone from the disk, and the tables left there are
// the live ones.
func TestObsoleteFilesRemoved(t *testing.T) {
	cfg, fs := testConfig(), vfs.NewMem()
	tree := &testTree{l: newLayout(cfg)}
	var err error
	tree.Core, err = treebase.Open(kind, cfg, fs, "db", &fakeHost{smallest: base.MaxSeqNum}, tree.l, tree.l.cur)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(23))
	seq := base.SeqNum(0)
	for b := 0; b < 10; b++ {
		kvs := map[string]string{}
		for i := 0; i < 500; i++ {
			kvs[fmt.Sprintf("key%06d", rng.Intn(5000))] = "v"
		}
		flushBatch(t, tree, kvs, &seq)
	}
	if err := tree.CompactAll(); err != nil {
		t.Fatal(err)
	}
	m := tree.Metrics()
	if m.Compactions == 0 {
		t.Fatal("no compactions ran")
	}
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	onDisk, live := 0, 0
	for _, name := range names {
		if ft, _, ok := base.ParseFilename(name); ok && ft == base.FileTypeTable {
			onDisk++
		}
	}
	for _, n := range m.LevelFiles {
		live += n
	}
	if onDisk != live || m.ZombieTables != 0 {
		t.Fatalf("%d tables on disk, %d live, %d zombies: want the live ones alone", onDisk, live, m.ZombieTables)
	}
}

// TestCoreSuite runs the shared treebase.Core behaviour suite over the
// leveled layout.
func TestCoreSuite(t *testing.T) { coretest.Run(t, Open, coretest.SeekPolicy{GetMisses: true}) }

package flsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/treebase/coretest"
	"pebblesdb/internal/vfs"
)

// fakeHost satisfies treebase.Host for white-box tree tests.
type fakeHost struct {
	smallest base.SeqNum
}

func (h *fakeHost) SmallestSnapshot() base.SeqNum { return h.smallest }
func (h *fakeHost) CommittedSeq() base.SeqNum     { return 0 }
func (h *fakeHost) ScheduleCompaction()           {}

func testConfig() *base.Config {
	cfg := &base.Config{
		MemtableSize:        32 << 10,
		LevelBaseBytes:      64 << 10,
		TargetFileSize:      16 << 10,
		TopLevelBits:        8,
		BitDecrement:        1,
		MaxSSTablesPerGuard: 3,
		NumLevels:           5,
	}
	cfg.EnsureDefaults()
	return cfg
}

// testTree pairs a tree with its FLSM layout and its filesystem for
// white-box tests.
type testTree struct {
	*treebase.Core
	l  *layout
	fs vfs.FS
}

// pinned returns the current version — the view the core reads. The
// white-box tests drive the tree from one goroutine, so the layout's state
// is read without the core's lock.
func (t *testTree) pinned() *version { return t.l.cur }

func openTree(tb testing.TB, cfg *base.Config, host treebase.Host) *testTree {
	tb.Helper()
	tree := &testTree{l: newLayout(cfg), fs: vfs.NewMem()}
	var err error
	tree.Core, err = treebase.Open(kind, cfg, tree.fs, "db", host, tree.l, tree.l.cur)
	if err != nil {
		tb.Fatal(err)
	}
	return tree
}

func openTestTree(t *testing.T) (*testTree, *fakeHost) {
	t.Helper()
	host := &fakeHost{smallest: base.MaxSeqNum}
	return openTree(t, testConfig(), host), host
}

// flushBatch writes keys (with sequence numbers starting at seq) through a
// memtable into L0.
func flushBatch(t *testing.T, tree *testTree, kvs map[string]string, seq *base.SeqNum) {
	t.Helper()
	mem := memtable.New()
	for k, v := range kvs {
		*seq++
		mem.Set([]byte(k), *seq, base.KindSet, []byte(v))
		tree.Ingest([]byte(k))
	}
	if err := tree.Flush(mem.NewIter(), nil, tree.NewFileNum(), *seq); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants verifies the FLSM structural invariants on a version:
// guards sorted and unique per level, every file within its guard interval,
// sentinel files below the first guard.
func checkInvariants(t *testing.T, v *version) {
	t.Helper()
	for l := 1; l < len(v.levels); l++ {
		gl := &v.levels[l]
		for i := 1; i < len(gl.guards); i++ {
			if bytes.Compare(gl.guards[i-1].Key, gl.guards[i].Key) >= 0 {
				t.Fatalf("level %d: guards out of order", l)
			}
		}
		if len(gl.guards) > 0 {
			first := gl.guards[0].Key
			for _, f := range gl.sentinel {
				if bytes.Compare(f.LargestUserKey(), first) >= 0 {
					t.Fatalf("level %d: sentinel file %s reaches past first guard %q", l, f, first)
				}
			}
		}
		for i := range gl.guards {
			lo := gl.guards[i].Key
			var hi []byte
			if i+1 < len(gl.guards) {
				hi = gl.guards[i+1].Key
			}
			for _, f := range gl.guards[i].Files {
				if bytes.Compare(f.SmallestUserKey(), lo) < 0 {
					t.Fatalf("level %d guard %q: file %s starts before guard", l, lo, f)
				}
				if hi != nil && bytes.Compare(f.LargestUserKey(), hi) >= 0 {
					t.Fatalf("level %d guard %q: file %s crosses next guard %q", l, lo, f, hi)
				}
			}
		}
	}
}

func TestFlushAndGet(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	seq := base.SeqNum(0)
	flushBatch(t, tree, map[string]string{"a": "1", "b": "2", "c": "3"}, &seq)

	v, found, err := tree.Get([]byte("b"), base.MaxSeqNum, nil, nil)
	if err != nil || !found || string(v) != "2" {
		t.Fatalf("get b: %q %v %v", v, found, err)
	}
	if _, found, _ := tree.Get([]byte("x"), base.MaxSeqNum, nil, nil); found {
		t.Fatal("absent key found")
	}
	if tree.L0Count() != 1 {
		t.Fatalf("L0 count %d", tree.L0Count())
	}
}

func TestCompactionPartitionsByGuards(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	rng := rand.New(rand.NewSource(11))
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
	checkInvariants(t, tree.pinned())

	// Data must have left L0 and guards must exist somewhere.
	m := tree.Metrics()
	if m.LevelFiles[0] >= tree.l.cfg.L0CompactionTrigger {
		t.Fatalf("L0 still has %d files after CompactAll", m.LevelFiles[0])
	}
	totalGuards := 0
	for _, g := range m.GuardsPerLevel {
		totalGuards += g
	}
	if totalGuards == 0 {
		t.Fatal("no guards were committed")
	}

	// Everything still readable.
	for k, v := range expect {
		got, found, err := tree.Get([]byte(k), base.MaxSeqNum, nil, nil)
		if err != nil || !found || string(got) != v {
			t.Fatalf("get %q: %q found=%v err=%v (want %q)", k, got, found, err, v)
		}
	}
}

func TestIteratorSeesAllKeysInOrder(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	rng := rand.New(rand.NewSource(12))
	seq := base.SeqNum(0)
	keys := map[string]bool{}
	for b := 0; b < 10; b++ {
		kvs := map[string]string{}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("key%06d", rng.Intn(50000))
			kvs[k] = "v"
			keys[k] = true
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
	var prev []byte
	distinct := map[string]bool{}
	for m.First(); m.Valid(); m.Next() {
		if prev != nil && base.InternalCompare(prev, m.Key()) > 0 {
			t.Fatal("iterator out of order")
		}
		prev = append(prev[:0], m.Key()...)
		distinct[string(base.UserKey(m.Key()))] = true
	}
	if len(distinct) != len(keys) {
		t.Fatalf("iterator saw %d distinct keys, want %d", len(distinct), len(keys))
	}
}

func TestUncommittedGuardsCommitOnCompaction(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	seq := base.SeqNum(0)

	// Find a key that the picker selects as a guard for level 1.
	var guardKey string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key%07d", i)
		if lvl, ok := tree.l.picker.GuardLevel([]byte(k)); ok && lvl == 1 {
			guardKey = k
			break
		}
	}
	kvs := map[string]string{guardKey: "gv"}
	for i := 0; i < 50; i++ {
		kvs[fmt.Sprintf("key%07d", i)] = "v"
	}
	flushBatch(t, tree, kvs, &seq)

	if len(tree.l.uncommitted[1]) == 0 {
		t.Fatal("expected uncommitted guards after ingest")
	}

	// Force compaction of L0 into L1: trigger by flushing enough batches.
	for b := 0; b < tree.l.cfg.L0CompactionTrigger; b++ {
		flushBatch(t, tree, map[string]string{fmt.Sprintf("filler%d", b): "x"}, &seq)
	}
	if err := tree.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if !tree.pinned().levels[1].hasGuard([]byte(guardKey)) {
		// The guard may have been committed and the data pushed deeper;
		// check all levels.
		found := false
		for l := 1; l < tree.l.cfg.NumLevels; l++ {
			if tree.pinned().levels[l].hasGuard([]byte(guardKey)) {
				found = true
			}
		}
		if !found {
			t.Fatal("guard key never committed")
		}
	}
	checkInvariants(t, tree.pinned())
}

func TestDeletesAreHonoredAcrossCompaction(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	seq := base.SeqNum(0)
	flushBatch(t, tree, map[string]string{"k1": "v1", "k2": "v2"}, &seq)

	// Delete k1 via a tombstone in a later flush.
	mem := memtable.New()
	seq++
	mem.Set([]byte("k1"), seq, base.KindDelete, nil)
	if err := tree.Flush(mem.NewIter(), nil, tree.NewFileNum(), seq); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := tree.Get([]byte("k1"), base.MaxSeqNum, nil, nil); found {
		t.Fatal("deleted key visible before compaction")
	}
	tree.CompactAll()
	if _, found, _ := tree.Get([]byte("k1"), base.MaxSeqNum, nil, nil); found {
		t.Fatal("deleted key visible after compaction")
	}
	if v, found, _ := tree.Get([]byte("k2"), base.MaxSeqNum, nil, nil); !found || string(v) != "v2" {
		t.Fatal("surviving key lost")
	}
}

func TestSnapshotVisibleThroughCompaction(t *testing.T) {
	host := &fakeHost{smallest: base.MaxSeqNum}
	tree := openTree(t, testConfig(), host)
	defer tree.Close()
	seq := base.SeqNum(0)
	flushBatch(t, tree, map[string]string{"k": "old"}, &seq)
	snapSeq := seq
	host.smallest = snapSeq // a snapshot exists at this sequence

	flushBatch(t, tree, map[string]string{"k": "new"}, &seq)
	tree.CompactAll()

	if v, found, _ := tree.Get([]byte("k"), snapSeq, nil, nil); !found || string(v) != "old" {
		t.Fatalf("snapshot read after compaction: %q found=%v", v, found)
	}
	if v, found, _ := tree.Get([]byte("k"), base.MaxSeqNum, nil, nil); !found || string(v) != "new" {
		t.Fatalf("latest read: %q", v)
	}
}

func TestGuardLevelIterSeek(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	rng := rand.New(rand.NewSource(13))
	seq := base.SeqNum(0)
	var all []string
	seen := map[string]bool{}
	for b := 0; b < 12; b++ {
		kvs := map[string]string{}
		for i := 0; i < 250; i++ {
			k := fmt.Sprintf("key%06d", rng.Intn(30000))
			kvs[k] = "v"
			if !seen[k] {
				seen[k] = true
				all = append(all, k)
			}
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
	for trial := 0; trial < 100; trial++ {
		probe := fmt.Sprintf("key%06d", rng.Intn(30000))
		search := base.MakeSearchKey(nil, []byte(probe), base.MaxSeqNum)
		m.SeekGE(search)
		if m.Valid() {
			got := base.UserKey(m.Key())
			if bytes.Compare(got, []byte(probe)) < 0 {
				t.Fatalf("seek %q landed before target at %q", probe, got)
			}
		}
	}
}

func TestEmptyGuardsAreHarmless(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	seq := base.SeqNum(0)
	// Insert keys, delete all, compact: guards persist but become empty.
	kvs := map[string]string{}
	for i := 0; i < 2000; i++ {
		kvs[fmt.Sprintf("key%06d", i)] = "v"
	}
	flushBatch(t, tree, kvs, &seq)
	for b := 0; b < 6; b++ {
		flushBatch(t, tree, map[string]string{fmt.Sprintf("f%d", b): "x"}, &seq)
	}
	tree.CompactAll()

	mem := memtable.New()
	for i := 0; i < 2000; i++ {
		seq++
		mem.Set([]byte(fmt.Sprintf("key%06d", i)), seq, base.KindDelete, nil)
	}
	if err := tree.Flush(mem.NewIter(), nil, tree.NewFileNum(), seq); err != nil {
		t.Fatal(err)
	}
	tree.CompactAll()
	checkInvariants(t, tree.pinned())

	// Reads and iteration still work with (possibly) empty guards.
	if _, found, _ := tree.Get([]byte("key000100"), base.MaxSeqNum, nil, nil); found {
		t.Fatal("deleted key visible")
	}
}

func TestDumpMentionsGuards(t *testing.T) {
	tree, _ := openTestTree(t)
	defer tree.Close()
	seq := base.SeqNum(0)
	rng := rand.New(rand.NewSource(14))
	for b := 0; b < 10; b++ {
		kvs := map[string]string{}
		for i := 0; i < 300; i++ {
			kvs[fmt.Sprintf("key%06d", rng.Intn(50000))] = "v"
		}
		flushBatch(t, tree, kvs, &seq)
	}
	tree.CompactAll()
	var buf bytes.Buffer
	tree.Dump(&buf)
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("guard")) {
		t.Fatalf("dump lacks guard info:\n%s", out)
	}
}

func TestPebbles1ModeTerminates(t *testing.T) {
	// max_sstables_per_guard=1 (PebblesDB-1, §3.5) must not churn forever.
	cfg := testConfig()
	cfg.MaxSSTablesPerGuard = 1
	tree := openTree(t, cfg, &fakeHost{smallest: base.MaxSeqNum})
	defer tree.Close()
	seq := base.SeqNum(0)
	rng := rand.New(rand.NewSource(15))
	for b := 0; b < 8; b++ {
		kvs := map[string]string{}
		for i := 0; i < 200; i++ {
			kvs[fmt.Sprintf("key%06d", rng.Intn(20000))] = "v"
		}
		flushBatch(t, tree, kvs, &seq)
	}
	if err := tree.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if tree.NeedsCompaction() {
		t.Fatal("tree should be quiescent after CompactAll")
	}
	checkInvariants(t, tree.pinned())
}

func TestGuardDeletionEdit(t *testing.T) {
	// Guard deletion is supported at the metadata layer (§3.3): deleting a
	// guard folds its files into the preceding interval. The store never
	// schedules it (matching the paper's artifact), but recovery must
	// honor edits that contain deletions.
	tree, _ := openTestTree(t)
	defer tree.Close()
	seq := base.SeqNum(0)
	rng := rand.New(rand.NewSource(77))
	for b := 0; b < 12; b++ {
		kvs := map[string]string{}
		for i := 0; i < 250; i++ {
			kvs[fmt.Sprintf("key%06d", rng.Intn(30000))] = "v"
		}
		flushBatch(t, tree, kvs, &seq)
	}
	tree.CompactAll()

	// Find a level with at least one guard and delete its first guard.
	v := tree.pinned()
	var level int
	var key []byte
	for l := 1; l < tree.l.cfg.NumLevels; l++ {
		if ks := v.levels[l].guardKeys(); len(ks) > 0 {
			level, key = l, ks[0]
			break
		}
	}
	if key == nil {
		t.Skip("no guards materialized")
	}
	nv, err := v.apply(&manifest.VersionEdit{
		DeletedGuards: []manifest.GuardEntry{{Level: level, Key: key}},
	}, tree.l.cfg.NumLevels)
	if err != nil {
		t.Fatal(err)
	}
	if nv.levels[level].hasGuard(key) {
		t.Fatal("guard still present after deletion")
	}
	checkInvariants(t, nv)
	// The guard's files moved to the sentinel: the level keeps every table.
	if got, want := nv.levels[level].fileCount(), v.levels[level].fileCount(); got != want {
		t.Fatalf("level %d holds %d tables after the deletion, want %d", level, got, want)
	}
	if _, files := nv.Find(level, key); len(files) != len(v.levels[level].sentinel)+len(v.levels[level].guards[0].Files) {
		t.Fatalf("the sentinel holds %d tables, want its own and the deleted guard's", len(files))
	}
}

// TestCoreSuite runs the shared treebase.Core behaviour suite over the
// FLSM layout.
func TestCoreSuite(t *testing.T) {
	coretest.Run(t, Open, coretest.SeekPolicy{IterSeeks: true, GetGroups: true})
}

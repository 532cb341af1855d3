package flsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/sstable"
)

// everyTable is the Get that consults every table that can hold a key — the
// whole of level 0 and, at each level, every table of the key's guard — and
// lets sequence numbers alone decide. It is what the tree's read path did
// before guards kept their tables in age order, and it survives as the
// oracle of the one that stops at the first hit: it takes on trust neither
// the order of a guard, nor that data only moves down, nor a bloom filter,
// and it reads the tables from the filesystem, past the table cache.
type everyTable struct {
	t       *testing.T
	tree    *testTree
	readers map[base.FileNum]*sstable.Reader
}

func (o *everyTable) reader(f *base.FileMetadata) *sstable.Reader {
	if r := o.readers[f.FileNum]; r != nil {
		return r
	}
	file, err := o.tree.fs.Open(filepath.Join("db", base.MakeFilename(base.FileTypeTable, f.FileNum)))
	if err != nil {
		o.t.Fatal(err)
	}
	r, err := sstable.Open(file, int64(f.Size), f.FileNum, nil, nil)
	if err != nil {
		o.t.Fatal(err)
	}
	o.readers[f.FileNum] = r
	return r
}

func (o *everyTable) get(v *version, ukey []byte, seq base.SeqNum) (value []byte, found bool) {
	tables := append([]*base.FileMetadata(nil), v.l0...)
	for lv := 1; lv < len(v.levels); lv++ {
		_, files := v.Find(lv, ukey)
		tables = append(tables, files...)
	}
	search := base.MakeSearchKey(nil, ukey, seq)
	var best, cov base.SeqNum
	var kind base.Kind
	hit := false
	for _, f := range tables {
		r := o.reader(f)
		if c := r.RangeDels().CoverSeq(ukey, seq); c > cov {
			cov = c
		}
		ikey, val, ok, err := r.Get(search)
		if err != nil {
			o.t.Fatal(err)
		}
		if !ok {
			continue
		}
		if _, fseq, k, _ := base.DecodeInternalKey(ikey); !hit || fseq > best {
			value, kind, best, hit = val, k, fseq, true
		}
	}
	if !hit || cov > best || kind != base.KindSet {
		return nil, false
	}
	return value, true
}

func (o *everyTable) close() {
	for _, r := range o.readers {
		r.Close()
	}
}

// snapshotHost is a host whose oldest snapshot the test moves while units
// run. It holds each unit between its claim and its merge for up to 2 ms,
// a different time from one unit to the next, so that units overtake each
// other: without that a rewrite is over before a fragment can arrive.
type snapshotHost struct{ smallest, units atomic.Uint64 }

func (h *snapshotHost) SmallestSnapshot() base.SeqNum {
	time.Sleep(time.Duration(h.units.Add(1)%8) * 250 * time.Microsecond)
	return base.SeqNum(h.smallest.Load())
}
func (h *snapshotHost) CommittedSeq() base.SeqNum { return 0 }
func (h *snapshotHost) ScheduleCompaction()       {}

// TestGetAgainstEveryTable is the differential test of the Get descent:
// rounds of flushes — sets, deletes, range deletes — beside four workers,
// in a tree of three levels that passes every flush on to the last at once,
// so that a guard there is rewritten in place every few flushes while
// fragments keep arriving in it (with append-only guards the test fails
// within four rounds). After each round, at rest, Core.Get must agree with
// the every-table oracle on random keys at the latest sequence and at
// snapshots, and every guard must be in age order. A guard holds up to
// three tables, so guards of two are still there to read at rest.
func TestGetAgainstEveryTable(t *testing.T) {
	cfg := testConfig()
	cfg.MemtableSize = 16 << 10
	cfg.LevelBaseBytes = 1 << 10
	cfg.TargetFileSize = 8 << 10
	cfg.TopLevelBits = 9
	cfg.L0CompactionTrigger = 1
	cfg.NumLevels = 3
	cfg.MaxCompactionConcurrency = 4
	cfg.CompactionUnitGuards = 1
	host := &snapshotHost{}
	host.smallest.Store(uint64(base.MaxSeqNum))
	tree := openTree(t, cfg, host)
	defer tree.Close()
	oracle := &everyTable{t: t, tree: tree, readers: map[base.FileNum]*sstable.Reader{}}
	defer oracle.close()

	const keys = 3000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	rng := rand.New(rand.NewSource(17))
	var seq base.SeqNum
	var snapshots []base.SeqNum // live, ascending
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		var writing atomic.Bool
		writing.Store(true)
		var wg sync.WaitGroup
		for w := 0; w < cfg.MaxCompactionConcurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					did, err := tree.CompactOnce()
					if err != nil {
						t.Error(err)
						return
					}
					if !did && !writing.Load() {
						return
					}
				}
			}()
		}
		for b := 0; b < 6; b++ {
			mem := memtable.New()
			if rng.Intn(3) == 0 {
				lo := rng.Intn(keys)
				seq++
				mem.DeleteRange(key(lo), key(lo+1+rng.Intn(200)), seq)
			}
			for i := 0; i < 150; i++ {
				k := key(rng.Intn(keys))
				seq++
				if rng.Intn(8) == 0 {
					mem.Set(k, seq, base.KindDelete, nil)
				} else {
					mem.Set(k, seq, base.KindSet, []byte(fmt.Sprintf("r%d-%d-%d", round, b, i)))
				}
				tree.Ingest(k)
			}
			if err := tree.Flush(mem.NewIter(), mem.RangeDels(), tree.NewFileNum(), seq); err != nil {
				t.Fatal(err)
			}
		}
		writing.Store(false)
		wg.Wait()
		if t.Failed() {
			return
		}

		// At rest: the workers are gone, so the layout's version is read
		// without the core's lock.
		v := tree.pinned()
		ats := append([]base.SeqNum{base.MaxSeqNum}, snapshots...)
		for i := 0; i < 400; i++ {
			k := key(rng.Intn(keys))
			for _, at := range ats {
				want, wantFound := oracle.get(v, k, at)
				got, found, err := tree.Get(k, at, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if found != wantFound || !bytes.Equal(got, want) {
					t.Fatalf("round %d: Get(%s) at %d = %q found=%v, every table says %q found=%v",
						round, k, at, got, found, want, wantFound)
				}
			}
		}

		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}

		// Snapshots come and go; compaction keeps what the oldest sees.
		if round%3 == 0 {
			snapshots = append(snapshots, seq)
		}
		if len(snapshots) > 2 {
			snapshots = snapshots[1:]
		}
		if len(snapshots) > 0 {
			host.smallest.Store(uint64(snapshots[0]))
		}
	}
	m := tree.Metrics()
	if m.InPlaceMerges == 0 || m.MaxLevelParallelism() < 2 {
		t.Fatalf("%d in-place merges, %d units of one level at once: the schedule under test did not occur",
			m.InPlaceMerges, m.MaxLevelParallelism())
	}
}

package pebblesdb

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// seekStore is a store under read-only traffic, the units its listener
// sees begin, and the model of what it must hold.
type seekStore struct {
	t    *testing.T
	db   *DB
	o    *Options // with the defaults filled in
	want map[string]string
	// units and seeks count the compaction units seen to begin, all and
	// seek-triggered; seekBegun receives when a seek-triggered one begins.
	units, seeks atomic.Int64
	seekBegun    chan struct{}
}

func openSeekStore(t *testing.T, p Preset, tweak func(*Options)) *seekStore {
	t.Helper()
	s := &seekStore{t: t, want: map[string]string{}, seekBegun: make(chan struct{}, 1)}
	o := testOptions(p)
	o.EventListener = EventFunc(func(e Event) {
		if e.Kind == EventCompactionBegin {
			s.units.Add(1)
			if e.Detail == "seek" {
				s.seeks.Add(1)
				select {
				case s.seekBegun <- struct{}{}:
				default:
				}
			}
		}
	})
	tweak(o)
	o.EnsureDefaults()
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	s.db, s.o = db, o
	return s
}

func seekKey(i int) string { return fmt.Sprintf("key%06d", i) }

// put writes keys, one value each, and flushes and drains every chunk
// puts: each flush is one the test asks for.
func (s *seekStore) put(keys []int, gen, chunk int) {
	s.t.Helper()
	for n, i := range keys {
		k, v := seekKey(i), fmt.Sprintf("value-%06d-gen%d-%080d", i, gen, i)
		if err := s.db.Put([]byte(k), []byte(v)); err != nil {
			s.t.Fatal(err)
		}
		s.want[k] = v
		if (n+1)%chunk == 0 || n == len(keys)-1 {
			if err := s.db.Flush(); err != nil {
				s.t.Fatal(err)
			}
			if err := s.db.WaitIdle(); err != nil {
				s.t.Fatal(err)
			}
		}
	}
}

// loadFragmented loads keys [0, n): every key once, compacted to the
// bottom, then n uniform overwrites in that many flushes, left as
// compaction leaves them, so that fragments pile up in the guards — the
// store FLSM's seek cost is about.
func (s *seekStore) loadFragmented(n int, seed int64, flushes int) {
	s.t.Helper()
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	s.put(keys, 0, n)
	if err := s.db.CompactAll(); err != nil {
		s.t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range keys {
		keys[i] = rng.Intn(n)
	}
	s.put(keys, 1, n/flushes)
}

// openFragmented opens an FLSM store loaded by loadFragmented in flushes
// flushes; tweak, when non-nil, adjusts its options first.
func openFragmented(t *testing.T, n, flushes int, tweak func(*Options)) *seekStore {
	t.Helper()
	s := openSeekStore(t, PresetPebblesDB, func(o *Options) {
		// One worker, as in the benchmark's load.
		o.NumLevels = 4
		o.MaxCompactionConcurrency = 1
		if tweak != nil {
			tweak(o)
		}
	})
	s.loadFragmented(n, 1, flushes)
	return s
}

// openMisses opens a leveled store of keys [0, n): the even keys compacted
// to the last level, the odd keys merged into level 1 right above them and
// level 0 empty, so that a Get of an even key near the middle searches the
// level-1 table over it in vain.
func openMisses(t *testing.T, n int) *seekStore {
	t.Helper()
	s := openSeekStore(t, PresetLevelDB, func(o *Options) {
		// Three levels put the even keys right under level 1, so a unit out
		// of level 1 is a merge, not a move; without filters a Get searches
		// the level-1 table over its key. A memtable that holds a whole
		// chunk of the load flushes only when the load asks, so the shape
		// does not depend on how flushes and the worker interleave.
		o.NumLevels = 3
		o.BloomBitsPerKey = -1
		o.MemtableSize = 1 << 20
	})
	var even, odd []int
	for i := 0; i < n; i += 2 {
		even, odd = append(even, i), append(odd, i+1)
	}
	s.put(even, 0, len(even))
	if err := s.db.CompactAll(); err != nil {
		s.t.Fatal(err)
	}
	// The odd keys in level-0 tables enough to trigger their merge into
	// level 1, which leaves level 0 empty.
	s.put(odd, 0, len(odd)/s.o.L0CompactionTrigger+1)
	if m := s.db.Metrics(); m.Tree.LevelFiles[0] != 0 || m.Tree.LevelFiles[1] == 0 || m.Tree.LevelFiles[2] == 0 {
		t.Fatalf("want level 0 empty, levels 1 and 2 populated:\n%s", m)
	}
	return s
}

// get reads k and checks it against the model.
func (s *seekStore) get(k string) {
	s.t.Helper()
	var buf [128]byte
	if v, ok, err := s.db.GetTo([]byte(k), buf[:0], nil); err != nil || !ok || string(v) != s.want[k] {
		s.t.Fatalf("Get(%s) = %.20q, %v, %v", k, v, ok, err)
	}
}

// awaitSeekUnit waits for the reads alone to have started a seek-triggered
// unit: nothing is written and WaitIdle, which schedules pending work
// itself, is not called before one begins.
func (s *seekStore) awaitSeekUnit() {
	s.t.Helper()
	select {
	case <-s.seekBegun:
	case <-time.After(10 * time.Second):
		s.t.Fatalf("%d seek budgets used up, no seek-triggered unit began in 10s of read-only traffic", s.db.Metrics().Tree.SeekPending)
	}
}

// settle drains the work the reads scheduled and checks the store: seek
// units ran, the structure is sound, every key reads back.
func (s *seekStore) settle() {
	s.t.Helper()
	if err := s.db.WaitIdle(); err != nil {
		s.t.Fatal(err)
	}
	m := s.db.Metrics()
	if m.Tree.SeekCompactions == 0 {
		s.t.Fatalf("no seek compaction counted:\n%s", m)
	}
	if err := s.db.CheckInvariants(); err != nil {
		s.t.Fatal(err)
	}
	for k, v := range s.want {
		if got, ok, err := s.db.Get([]byte(k), nil); err != nil || !ok || string(got) != v {
			s.t.Fatalf("Get(%s) = %.20q, %v, %v after the seek compactions", k, got, ok, err)
		}
	}
}

// tablesPerGuard is how many tables a populated guard of levels 1 and
// deeper holds on average.
func tablesPerGuard(m Metrics) float64 {
	tables, guards := 0, -m.Tree.EmptyGuards
	for l := 1; l < len(m.Tree.LevelFiles); l++ {
		tables += m.Tree.LevelFiles[l]
		guards += m.Tree.GuardsPerLevel[l]
	}
	return float64(tables) / float64(max(guards, 1))
}

// TestReadTrafficRunsSeekCompaction: under reads alone — no write, no
// flush, no call that schedules work itself — the read that uses up a seek
// budget (§4.2) starts the unit it made. FLSM charges iterator seeks that
// position several tables of a guard; leveled charges the first table a
// Get searched in vain. Both run their units, and the store holds every key.
func TestReadTrafficRunsSeekCompaction(t *testing.T) {
	t.Run("flsm", func(t *testing.T) {
		const n = 16000
		s := openFragmented(t, n, 16, nil)
		defer s.db.Close()
		before := s.db.Metrics()
		if tablesPerGuard(before) < 2 {
			t.Fatalf("the load left %.2f tables per populated guard, want guards of several:\n%s", tablesPerGuard(before), before)
		}

		it, err := s.db.NewIter(nil)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2*s.o.SeekCompactionThreshold; round++ {
			for i := 0; i < n; i += 50 {
				it.SeekGE([]byte(seekKey(i)))
				if !it.Valid() {
					t.Fatalf("SeekGE(%s) found nothing: %v", seekKey(i), it.Error())
				}
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		s.awaitSeekUnit()
		s.settle()
		after := s.db.Metrics()
		if tablesPerGuard(after) >= tablesPerGuard(before) {
			t.Fatalf("tables per populated guard %.2f before the seeks, %.2f after", tablesPerGuard(before), tablesPerGuard(after))
		}
		t.Logf("tables per populated guard %.2f -> %.2f, %d seek compactions", tablesPerGuard(before), tablesPerGuard(after), after.Tree.SeekCompactions)
	})

	t.Run("leveled", func(t *testing.T) {
		const n = 8000
		s := openMisses(t, n)
		defer s.db.Close()

		// Even keys near the middle: each misses the level-1 table whose
		// range holds it and is found in level 2.
		for i := 0; i < 400; i++ {
			s.get(seekKey(n/2 + 2*(i%8)))
		}
		s.awaitSeekUnit()
		s.settle()
	})
}

// TestGetTrafficRunsSeekCompaction: Gets alone compact the FLSM guards they
// pay for. A Get that consults two or more tables of a guard — passes over
// the newest one whose key range holds its key — charges the guard's seek
// budget (§4.2), so a read-only stretch after a write burst brings the store
// towards one table per guard, as seeks do.
func TestGetTrafficRunsSeekCompaction(t *testing.T) {
	const n = 16000
	// 64 flushes under a guard cap above the default 4 leave three tables
	// or more per guard, and a memtable that holds a whole flush's worth
	// flushes only when the load asks, so that the shape does not depend
	// on how the flushes and the worker interleave.
	s := openFragmented(t, n, 64, func(o *Options) {
		o.MaxSSTablesPerGuard = 6
		o.MemtableSize = 256 << 10
	})
	defer s.db.Close()
	before := s.db.Metrics()
	if tablesPerGuard(before) < 3 {
		t.Fatalf("the load left %.2f tables per populated guard, want 3 or more:\n%s", tablesPerGuard(before), before)
	}
	for round := 0; round < 2*s.o.SeekCompactionThreshold; round++ {
		for i := 0; i < n; i += 50 {
			s.get(seekKey(i))
		}
	}
	s.awaitSeekUnit()
	s.settle()
	after := s.db.Metrics()
	if tablesPerGuard(after) >= tablesPerGuard(before) {
		t.Fatalf("tables per populated guard %.2f before the Gets, %.2f after", tablesPerGuard(before), tablesPerGuard(after))
	}
	t.Logf("tables per populated guard %.2f -> %.2f, %d seek compactions", tablesPerGuard(before), tablesPerGuard(after), after.Tree.SeekCompactions)
}

// TestCommitsRestartSeekBudgets: an FLSM guard's seek budget counts
// consecutive reads — §4.2's "consecutive seeks" — ones with no commit
// between them. Reads in
// pairs with a Put before every pair never use a budget up, however many
// there are, so under writes, whose flushes would undo the unit, no read
// starts one: each pair charges a budget, and the Put before the next pair
// restarts it. The same reads with no Put between them do start one.
func TestCommitsRestartSeekBudgets(t *testing.T) {
	// run makes the given number of reads twice: first in pairs with a Put
	// before every pair, then with none.
	run := func(t *testing.T, s *seekStore, reads int, read func(i int)) {
		t.Helper()
		for i := 0; i < reads; i++ {
			if i > 0 && i%2 == 0 {
				k, v := "put-between", fmt.Sprintf("put-%d", i)
				if err := s.db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				s.want[k] = v
			}
			read(i)
			if m := s.db.Metrics(); m.Tree.SeekPending != 0 || m.Tree.SeekCompactions != 0 {
				t.Fatalf("read %d of %d, in pairs after a Put: %d budgets pending, %d seek compactions, want none", i+1, reads, m.Tree.SeekPending, m.Tree.SeekCompactions)
			}
		}
		if m := s.db.Metrics(); m.Tree.SeekRestarts == 0 {
			t.Fatalf("%d reads in pairs after a Put restarted no budget", reads)
		}
		pending := int64(0)
		for i := 0; i < reads; i++ {
			read(i)
			pending = max(pending, s.db.Metrics().Tree.SeekPending)
		}
		// The unit a budget makes may begin, and claim the budget, before
		// the read that used it up looks.
		if pending == 0 && s.seeks.Load() == 0 {
			t.Fatalf("%d reads with no Put between them used up no budget", reads)
		}
		s.awaitSeekUnit()
		s.settle()
	}

	const n = 4000
	t.Run("flsm/seek", func(t *testing.T) {
		s := openFragmented(t, n, 16, nil)
		defer s.db.Close()
		it, err := s.db.NewIter(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close() // before the store's Close, also when a check fails
		run(t, s, 20*s.o.SeekCompactionThreshold, func(int) {
			if it.SeekGE([]byte(seekKey(n / 2))); !it.Valid() {
				t.Fatalf("SeekGE(%s) found nothing: %v", seekKey(n/2), it.Error())
			}
		})
	})
	t.Run("flsm/get", func(t *testing.T) {
		s := openFragmented(t, n, 16, nil)
		defer s.db.Close()
		run(t, s, 20*s.o.SeekCompactionThreshold, func(i int) { s.get(seekKey(n/2 + i%8)) })
	})
}

// TestLeveledSeekBudgetSpansCommits: a leveled table's budget is LevelDB's
// allowed seeks, which count a table's misses over its life: reads in pairs
// with a Put before every pair use it up, restart nothing, and start a seek
// unit.
func TestLeveledSeekBudgetSpansCommits(t *testing.T) {
	const n = 4000
	s := openMisses(t, n)
	defer s.db.Close()
	// A leveled table allows at least 100 seeks.
	for i := 0; i < 400; i++ {
		if i > 0 && i%2 == 0 {
			k, v := "put-between", fmt.Sprintf("put-%d", i)
			if err := s.db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			s.want[k] = v
		}
		s.get(seekKey(n/2 + 2*(i%4)))
	}
	if m := s.db.Metrics(); m.Tree.SeekRestarts != 0 {
		t.Fatalf("%d budgets restarted, want none", m.Tree.SeekRestarts)
	}
	s.awaitSeekUnit()
	s.settle()
}

// TestCloseRacesReadTriggeredCompaction: four readers whose seeks into
// guards of several tables use up budgets — so that reads start units —
// race Close, fifty times. Close must not deadlock against a reader that
// starts a worker, no unit may begin once Close has returned, and at rest
// no cached block is held by anyone but the cache.
func TestCloseRacesReadTriggeredCompaction(t *testing.T) {
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	var seekUnits int64
	// A slow run may close every store before a read starts a unit; it
	// goes on until one has, up to the full count.
	for round := 0; round < rounds || seekUnits == 0 && round < 50; round++ {
		s := openSeekStore(t, PresetPebblesDB, func(o *Options) { o.NumLevels = 4 })
		const n = 4000
		s.loadFragmented(n, int64(round), 16)
		blocks := s.db.eng.BlockCache()
		var readers sync.WaitGroup
		for g := 0; g < 4; g++ {
			readers.Add(1)
			go func(seed int64) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					it, err := s.db.NewIter(nil)
					if err != nil {
						if !isClosedErr(err) {
							t.Errorf("NewIter: %v", err)
						}
						return
					}
					for j := 0; j < 64; j++ {
						it.SeekGE([]byte(seekKey(rng.Intn(n))))
					}
					if err := it.Close(); err != nil {
						t.Errorf("iterator: %v", err)
						return
					}
				}
			}(int64(round*10 + g))
		}
		time.Sleep(time.Duration(round%5) * time.Millisecond)
		closed := make(chan error, 1)
		go func() { closed <- s.db.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("round %d: Close: %v", round, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Close did not return in 30s beside seeking readers", round)
		}
		begun := s.units.Load()
		readers.Wait()
		// A unit the last reader started would begin on a goroutine of its
		// own: give it the time to.
		time.Sleep(time.Millisecond)
		if late := s.units.Load() - begun; late != 0 {
			t.Fatalf("round %d: %d units began after Close returned", round, late)
		}
		if held := blocks.Held(); held != 0 {
			t.Fatalf("round %d: %d cached blocks still held at rest", round, held)
		}
		seekUnits += s.seeks.Load()
	}
	if seekUnits == 0 {
		t.Fatal("no read started a seek-triggered unit in 50 rounds: the race was not run")
	}
	t.Logf("%d seek-triggered units over %d rounds or more", seekUnits, rounds)
}

// Package coretest is the behaviour suite of treebase.Core, written once
// and run against every layout: the flsm and leveled packages call Run from
// their tests with their Open. It checks what the core promises whatever
// the layout — the install-vs-persist rule, ticket-ordered manifest
// appends and deletions, a table whose removal fails, the allocation-free
// scheduling predicates, claim-stall accounting, that a store reopens to
// the state it was closed in, and
// (read.go) the one read path: Get and iteration against a model, the seek
// hook, pin-then-load and the iterator error path.
package coretest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/vfs"
)

// OpenFunc opens a tree of the layout under test.
type OpenFunc func(cfg *base.Config, fs vfs.FS, dir string, host treebase.Host) (*treebase.Core, error)

// Run runs the suite against one layout, whose seek charging policy says.
func Run(t *testing.T, open OpenFunc, policy SeekPolicy) {
	t.Run("InstallVsPersist", func(t *testing.T) {
		for _, step := range []string{"flush", "compaction"} {
			for _, when := range []string{"before-install", "after-install"} {
				t.Run(step+"/"+when, func(t *testing.T) { testInstallVsPersist(t, open, step, when) })
			}
		}
	})
	t.Run("TicketOrder", func(t *testing.T) { testTicketOrder(t, open) })
	t.Run("SettleInTurn", func(t *testing.T) { testSettleInTurn(t, open) })
	t.Run("RemoveFails", func(t *testing.T) { testRemoveFails(t, open) })
	t.Run("PredicatesDoNotAllocate", func(t *testing.T) { testPredicateAllocs(t, open) })
	t.Run("ClaimStall", func(t *testing.T) { testClaimStall(t, open) })
	t.Run("ParallelUnits", func(t *testing.T) { testParallelUnits(t, open) })
	t.Run("Claims", func(t *testing.T) { testClaims(t, open) })
	t.Run("GuardSplit", func(t *testing.T) { testGuardSplit(t, open) })
	runReads(t, open, policy)
}

// host is the engine stand-in. While gated, SmallestSnapshot — the first
// thing a claimed unit calls — parks the unit until the gate opens, which
// lets a test hold a claim for as long as it likes.
type host struct {
	mu       sync.Mutex
	snapshot base.SeqNum   // non-zero: the oldest live snapshot
	gate     chan struct{} // non-nil: units park here
	toPark   int           // units the gate still stops; later ones pass
	parked   chan struct{} // receives one value per parked unit
	// scheduled counts the reads that told the host a seek budget ran out.
	scheduled atomic.Int64
	// committed is what CommittedSeq reports; a test moves it to stand for
	// a commit.
	committed atomic.Uint64
}

func (h *host) SmallestSnapshot() base.SeqNum {
	h.mu.Lock()
	gate, snapshot := h.gate, h.snapshot
	if h.toPark == 0 {
		gate = nil
	} else {
		h.toPark--
	}
	h.mu.Unlock()
	if gate != nil {
		h.parked <- struct{}{}
		<-gate
	}
	if snapshot != 0 {
		return snapshot
	}
	return base.MaxSeqNum
}

// setSnapshot registers a snapshot at seq: compaction keeps what reads at
// seq and later see.
func (h *host) setSnapshot(seq base.SeqNum) {
	h.mu.Lock()
	h.snapshot = seq
	h.mu.Unlock()
}

// park gates the host for the next n units to reach it — units after them
// run beside the parked ones; the returned func opens the gate, once.
func (h *host) park(n int) (release func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	gate := make(chan struct{})
	h.gate, h.toPark, h.parked = gate, n, make(chan struct{}, n)
	var once sync.Once
	return func() {
		once.Do(func() {
			h.mu.Lock()
			h.gate, h.toPark = nil, 0
			h.mu.Unlock()
			close(gate)
		})
	}
}

func (h *host) CommittedSeq() base.SeqNum { return base.SeqNum(h.committed.Load()) }
func (h *host) ScheduleCompaction()       { h.scheduled.Add(1) }

// store is a tree under test plus the model of what it must hold.
type store struct {
	t    testing.TB
	c    *treebase.Core
	fs   vfs.FS
	host *host
	cfg  *base.Config
	rng  *rand.Rand
	seq  base.SeqNum
	want map[string]string // live keys; a deleted key is absent

	rotations    atomic.Int64 // manifest rotations observed
	seekUnits    atomic.Int64 // seek-triggered compaction units begun
	inPlaceUnits atomic.Int64 // units begun whose source is the last level
}

func newConfig() *base.Config {
	cfg := &base.Config{
		MemtableSize:        32 << 10,
		LevelBaseBytes:      64 << 10,
		TargetFileSize:      16 << 10,
		TopLevelBits:        8,
		BitDecrement:        1,
		MaxSSTablesPerGuard: 3,
		NumLevels:           5,
		// The suite's level thresholds are counted in stored bytes.
		Compression: compress.None,
	}
	cfg.EnsureDefaults()
	return cfg
}

// openStore opens an empty store on fs; tweak adjusts the suite's
// configuration first.
func openStore(t testing.TB, open OpenFunc, fs vfs.FS, tweak ...func(*base.Config)) *store {
	t.Helper()
	s := &store{t: t, fs: fs, host: &host{}, cfg: newConfig(), rng: rand.New(rand.NewSource(1)), want: map[string]string{}}
	s.cfg.EventListener = obs.Func(func(e obs.Event) {
		switch {
		case e.Kind == obs.EventManifestRotation:
			s.rotations.Add(1)
		case e.Kind == obs.EventCompactionBegin && e.Detail == "seek":
			s.seekUnits.Add(1)
		case e.Kind == obs.EventCompactionBegin && e.Level == s.cfg.NumLevels-1:
			s.inPlaceUnits.Add(1)
		}
	})
	for _, fn := range tweak {
		fn(s.cfg)
	}
	c, err := open(s.cfg, fs, "db", s.host)
	if err != nil {
		t.Fatal(err)
	}
	s.c = c
	return s
}

// reopen closes the tree and recovers it from the same filesystem; the
// model carries over.
func (s *store) reopen(open OpenFunc) {
	s.t.Helper()
	if err := s.c.Close(); err != nil {
		s.t.Fatal(err)
	}
	c, err := open(s.cfg, s.fs, "db", s.host)
	if err != nil {
		s.t.Fatalf("reopen: %v", err)
	}
	s.c = c
	s.checkInvariants()
}

// checkInvariants verifies the tree's structure against its tables. The
// suites call it after every step: beside each check of what the tree
// returns (verify, checkReads) and after each reopen.
func (s *store) checkInvariants() {
	s.t.Helper()
	if err := s.c.CheckInvariants(); err != nil {
		s.t.Fatalf("invariant broken: %v\n%s", err, s.dump())
	}
}

// flush writes n random keys tagged tag through a memtable into level 0.
// With rangeDel it first deletes a span of the key space, so the table
// carries a range tombstone above older data.
func (s *store) flush(n int, tag string, rangeDel bool) error {
	mem := memtable.New()
	got := map[string]string{}
	var dropLo, dropHi string
	if rangeDel {
		lo := s.rng.Intn(9000)
		dropLo, dropHi = key(lo), key(lo+500)
		s.seq++
		mem.DeleteRange([]byte(dropLo), []byte(dropHi), s.seq)
	}
	for i := 0; i < n; i++ {
		k, v := key(s.rng.Intn(10000)), fmt.Sprintf("%s-%d", tag, i)
		s.seq++
		mem.Set([]byte(k), s.seq, base.KindSet, []byte(v))
		s.c.Ingest([]byte(k))
		got[k] = v
	}
	if err := s.c.Flush(mem.NewIter(), mem.RangeDels(), s.c.NewFileNum(), s.seq); err != nil {
		return err
	}
	for k := range s.want {
		if rangeDel && k >= dropLo && k < dropHi {
			delete(s.want, k)
		}
	}
	for k, v := range got {
		s.want[k] = v
	}
	return nil
}

func key(i int) string { return fmt.Sprintf("key%06d", i) }

func (s *store) mustFlush(n int, tag string, rangeDel bool) {
	s.t.Helper()
	if err := s.flush(n, tag, rangeDel); err != nil {
		s.t.Fatal(err)
	}
}

// load builds a store several levels deep: guards committed (FLSM), range
// tombstones in the tables, level 0 drained.
func (s *store) load() {
	s.t.Helper()
	for b := 0; b < 12; b++ {
		s.mustFlush(300, fmt.Sprintf("load%d", b), b%4 == 3)
	}
	if err := s.c.CompactAll(); err != nil {
		s.t.Fatal(err)
	}
}

// verify reads every key of the model space back.
func (s *store) verify() {
	s.t.Helper()
	s.checkInvariants()
	for i := 0; i < 10000; i++ {
		k := key(i)
		v, found, err := s.c.Get([]byte(k), base.MaxSeqNum, nil, nil)
		if err != nil {
			s.t.Fatalf("get %s: %v", k, err)
		}
		want, live := s.want[k]
		if found != live || (live && string(v) != want) {
			s.t.Fatalf("get %s = %q found=%v, want %q found=%v", k, v, found, want, live)
		}
	}
}

func (s *store) dump() string {
	var b bytes.Buffer
	s.c.Dump(&b)
	return b.String()
}

// tablesOnDisk lists the sstable file numbers present in the store's
// directory.
func (s *store) tablesOnDisk() []base.FileNum {
	s.t.Helper()
	names, err := s.fs.List("db")
	if err != nil {
		s.t.Fatal(err)
	}
	var fns []base.FileNum
	for _, name := range names {
		if ft, fn, ok := base.ParseFilename(name); ok && ft == base.FileTypeTable {
			fns = append(fns, fn)
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i] < fns[j] })
	return fns
}

// liveTables is the number of tables in the current version.
func (s *store) liveTables() int {
	n := 0
	for _, c := range s.c.Metrics().LevelFiles {
		n += c
	}
	return n
}

// testInstallVsPersist fails one filesystem sync inside a flush or a
// compaction unit and checks what happens to the step's output tables. The
// step first runs on a healthy twin store to learn its operation indices —
// the tree is deterministic, so the faulted store replays the same
// sequence: the step's first sync belongs to its first output table (the
// edit is never installed), its last to the manifest append (the edit is
// installed but not persisted).
func testInstallVsPersist(t *testing.T, open OpenFunc, stepName, when string) {
	prepare := func(s *store) {
		s.load()
		if stepName == "compaction" {
			for i := 0; i < s.cfg.L0CompactionTrigger; i++ {
				s.mustFlush(100, fmt.Sprintf("l0-%d", i), false)
			}
		}
	}
	step := func(s *store) error {
		if stepName == "flush" {
			return s.flush(200, "step", true)
		}
		did, err := s.c.CompactOnce()
		if !did {
			t.Fatal("no compaction unit was claimable")
		}
		return err
	}

	twinFS := vfs.NewErr(vfs.NewMem())
	twin := openStore(t, open, twinFS)
	prepare(twin)
	twinBefore := twin.tablesOnDisk()
	first := twinFS.OpCount()
	if err := step(twin); err != nil {
		t.Fatal(err)
	}
	// The step's last operations remove the inputs its persisted edit
	// deleted, one each; the manifest append's sync comes just before them.
	last := twinFS.OpCount() - 1
	after := map[base.FileNum]bool{}
	for _, fn := range twin.tablesOnDisk() {
		after[fn] = true
	}
	for _, fn := range twinBefore {
		if !after[fn] {
			last--
		}
	}
	twin.c.Close()

	efs := vfs.NewErr(vfs.NewMem())
	s := openStore(t, open, efs)
	prepare(s)
	tablesBefore := s.tablesOnDisk()
	if efs.OpCount() != first {
		t.Fatalf("store is not deterministic: %d ops to prepare, twin took %d", efs.OpCount(), first)
	}
	at := first
	if when == "after-install" {
		at = last
	}
	efs.FailAt(at, vfs.OpSync, nil, false)
	if err := step(s); err == nil {
		t.Fatal("step succeeded despite the injected sync failure")
	}
	if efs.Injected() != 1 {
		t.Fatalf("%d faults injected, want 1", efs.Injected())
	}

	// The tree knows every table on disk, and every table it lists is there.
	s.checkInvariants()
	tablesAfter := s.tablesOnDisk()
	if when == "before-install" {
		// Never installed: the outputs are gone and the store is as it was.
		if fmt.Sprint(tablesAfter) != fmt.Sprint(tablesBefore) {
			t.Errorf("tables on disk %v, want %v as before the failed step", tablesAfter, tablesBefore)
		}
		s.verify()
		if err := step(s); err != nil {
			t.Fatalf("retry: %v", err)
		}
	} else {
		// Installed, not persisted: the outputs serve reads, so they stay
		// and are protected; a compaction's inputs stay too, because the
		// durable manifest still lists them.
		if len(tablesAfter) <= len(tablesBefore) {
			t.Errorf("tables on disk %v, want the step's outputs added to %v", tablesAfter, tablesBefore)
		}
		have := map[base.FileNum]bool{}
		for _, fn := range tablesAfter {
			have[fn] = true
		}
		for _, fn := range tablesBefore {
			if !have[fn] {
				t.Errorf("input table %d removed although the edit deleting it is not durable", fn)
			}
		}
		if stepName == "flush" {
			// The flush is in the live version; the model must say so too.
			s.want = twin.want
		}
	}
	s.verify()

	// The next edit finds the manifest poisoned and rotates it with a full
	// snapshot, which makes everything installed so far durable.
	rotations := s.rotations.Load()
	s.mustFlush(50, "later", false)
	if when == "after-install" && s.rotations.Load() == rotations {
		t.Error("no manifest rotation followed the failed append")
	}
	s.verify()
	before := s.dump()
	levelFiles := fmt.Sprint(s.c.Metrics().LevelFiles, s.c.Metrics().GuardsPerLevel)
	s.reopen(open)
	defer s.c.Close()
	if after := s.dump(); after != before {
		t.Errorf("layout changed across reopen:\n--- closed\n%s--- reopened\n%s", before, after)
	}
	if got := fmt.Sprint(s.c.Metrics().LevelFiles, s.c.Metrics().GuardsPerLevel); got != levelFiles {
		t.Errorf("level files / guards %s after reopen, want %s", got, levelFiles)
	}
	guards := 0
	for _, n := range s.c.Metrics().GuardsPerLevel {
		guards += n
	}
	for k := range s.want {
		if guards == 0 && s.c.WantGuard([]byte(k)) {
			t.Fatalf("the layout selects %s as a guard but committed none; the reopen check is too weak", k)
		}
	}
	s.verify()
}

// testTicketOrder installs from several goroutines at once — flushes and
// compaction units — and reopens the store: recovery replays the manifest
// edit by edit, so an append out of install order (a delete landing before
// the add it follows) fails the replay or resurrects a table.
func testTicketOrder(t *testing.T, open OpenFunc) {
	s := openStore(t, open, vfs.NewMem())
	var seq atomic.Uint64
	var wg sync.WaitGroup
	var flushing atomic.Int32
	want := make([]map[string]string, 2)
	for w := range want {
		want[w] = map[string]string{}
		flushing.Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer flushing.Add(-1)
			rng := rand.New(rand.NewSource(int64(w)))
			for b := 0; b < 20; b++ {
				mem := memtable.New()
				var last base.SeqNum
				for i := 0; i < 200; i++ {
					// Writers own disjoint keys, so the order their level-0
					// tables land in does not matter.
					k, v := fmt.Sprintf("w%d-%05d", w, rng.Intn(20000)), fmt.Sprintf("%d-%d", b, i)
					last = base.SeqNum(seq.Add(1))
					mem.Set([]byte(k), last, base.KindSet, []byte(v))
					s.c.Ingest([]byte(k))
					want[w][k] = v
				}
				if err := s.c.Flush(mem.NewIter(), nil, s.c.NewFileNum(), last); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				did, err := s.c.CompactOnce()
				if err != nil {
					t.Error(err)
					return
				}
				if !did {
					if flushing.Load() == 0 {
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if m := s.c.Metrics(); m.Compactions+m.TrivialMoves == 0 {
		t.Fatal("no compaction ran beside the flushes")
	}

	s.checkInvariants()
	before := s.dump()
	s.reopen(open)
	defer s.c.Close()
	if after := s.dump(); after != before {
		t.Errorf("layout changed across reopen:\n--- closed\n%s--- reopened\n%s", before, after)
	}
	for w := range want {
		for k, v := range want[w] {
			got, found, err := s.c.Get([]byte(k), base.MaxSeqNum, nil, nil)
			if err != nil || !found || string(got) != v {
				t.Fatalf("get %s = %q found=%v err=%v, want %q", k, got, found, err, v)
			}
		}
	}
}

// testSettleInTurn runs two units whose manifest appends follow each
// other, the second failing, and parks the first between its append and the
// recording of its deletions: the first's manifest sync starts a
// CheckInvariants whose directory listing holds the core's lock. The second
// must not append until the first has recorded them — a success settles
// the deletions owed by the failed appends before it, and one settled
// after a later failure would hand that edit's inputs, which the durable
// manifest still lists, to the sweep. After a reopen every table the
// manifest lists is on disk and the data is whole.
func testSettleInTurn(t *testing.T, open OpenFunc) {
	fs := &appendFS{FS: vfs.NewMem()}
	s := openStore(t, open, fs)
	s.overfillLevelOne()
	release, errs := s.parkUnits(2)
	defer release()
	inputs := map[*treebase.Unit][]base.FileNum{}
	for fn, u := range s.c.Claimed() {
		inputs[u] = append(inputs[u], fn)
	}
	// installed reports whether both units have switched the view: each
	// has taken at least one of the tables it holds out of it.
	installed := func() bool {
		d := s.dump()
		for _, fns := range inputs {
			gone := false
			for _, fn := range fns {
				gone = gone || !strings.Contains(d, fmt.Sprintf(" %06d:", fn))
			}
			if !gone {
				return false
			}
		}
		return true
	}

	held, hold := make(chan struct{}), make(chan struct{})
	appended := make(chan struct{}, 1)
	checked := make(chan error, 1)
	fs.set(&fs.onSync, func() error {
		for deadline := time.Now().Add(5 * time.Second); !installed() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if !installed() {
			t.Error("the second unit did not install while the first appended")
		}
		fs.set(&fs.onWrite, func() error {
			appended <- struct{}{}
			return vfs.ErrInjected
		})
		fs.set(&fs.onList, func() error {
			close(held)
			<-hold
			return nil
		})
		go func() { checked <- s.c.CheckInvariants() }()
		<-held
		return nil
	})
	release()
	<-held
	select {
	case <-appended:
		t.Error("the second unit appended while the first had yet to record its deletions")
	case <-time.After(100 * time.Millisecond):
	}
	close(hold)
	if err := <-checked; err != nil {
		t.Errorf("invariants with the first append parked: %v", err)
	}
	failed := 0
	for i := 0; i < 2; i++ {
		if err := <-errs; errors.Is(err, vfs.ErrInjected) {
			failed++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if failed != 1 {
		t.Fatalf("%d units failed, want the second", failed)
	}
	s.reopen(open)
	defer s.c.Close()
	s.verify()
}

// testRemoveFails fails the removal of the first table a unit deletes: the
// tree still knows the table, which stays a zombie until a later sweep
// removes it.
func testRemoveFails(t *testing.T, open OpenFunc) {
	efs := vfs.NewErr(vfs.NewMem())
	s := openStore(t, open, efs)
	defer s.c.Close()
	s.load()
	compact := func(tag string) {
		for i := 0; i < s.cfg.L0CompactionTrigger; i++ {
			s.mustFlush(100, fmt.Sprintf("%s-%d", tag, i), false)
		}
		if err := s.c.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	efs.FailAt(efs.OpCount(), vfs.OpRemove, nil, false)
	compact("kept")
	if efs.Injected() != 1 {
		t.Fatal("no unit removed a table")
	}
	// A later unit of the same run may already have removed it.
	s.checkInvariants()
	if z, disk := s.c.Metrics().ZombieTables, s.tablesOnDisk(); z > 1 || len(disk) != s.liveTables()+int(z) {
		t.Errorf("%d zombie tables, %d tables on disk for %d live after a removal failed", z, len(disk), s.liveTables())
	}
	compact("swept")
	if z, disk := s.c.Metrics().ZombieTables, s.tablesOnDisk(); z != 0 || len(disk) != s.liveTables() {
		t.Errorf("%d zombie tables, %d tables on disk for %d live after the next sweep", z, len(disk), s.liveTables())
	}
	s.verify()
}

// appendFS runs a hook, once, ahead of the next manifest write, the next
// manifest sync and the next directory listing; a hook's error fails the
// operation.
type appendFS struct {
	vfs.FS
	mu                      sync.Mutex
	onWrite, onSync, onList func() error
}

// set arms hook with h.
func (fs *appendFS) set(hook *func() error, h func() error) {
	fs.mu.Lock()
	*hook = h
	fs.mu.Unlock()
}

// run disarms hook and runs what it held.
func (fs *appendFS) run(hook *func() error) error {
	fs.mu.Lock()
	h := *hook
	*hook = nil
	fs.mu.Unlock()
	if h == nil {
		return nil
	}
	return h()
}

func (fs *appendFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if ft, _, ok := base.ParseFilename(filepath.Base(name)); err != nil || !ok || ft != base.FileTypeManifest {
		return f, err
	}
	return &manifestFile{File: f, fs: fs}, nil
}

func (fs *appendFS) List(dir string) ([]string, error) {
	if err := fs.run(&fs.onList); err != nil {
		return nil, err
	}
	return fs.FS.List(dir)
}

type manifestFile struct {
	vfs.File
	fs *appendFS
}

func (f *manifestFile) Write(p []byte) (int, error) {
	if err := f.fs.run(&f.fs.onWrite); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *manifestFile) Sync() error {
	if err := f.fs.run(&f.fs.onSync); err != nil {
		return err
	}
	return f.File.Sync()
}

// testPredicateAllocs pins the scheduling predicates at zero allocations
// with work pending at level 0 and at a deeper, over-threshold level: they
// run on every commit group and worker wakeup.
func testPredicateAllocs(t *testing.T, open OpenFunc) {
	s := openStore(t, open, vfs.NewMem())
	defer s.c.Close()
	for b := 0; b < 20; b++ {
		s.mustFlush(300, "fill", false)
	}
	if did, err := s.c.CompactOnce(); err != nil || !did {
		t.Fatalf("CompactOnce = %v, %v", did, err)
	}
	m := s.c.Metrics()
	if m.LevelBytes[1] < s.cfg.MaxBytesForLevel(1) {
		t.Fatalf("level 1 holds %d bytes, under its %d threshold; the test is too weak", m.LevelBytes[1], s.cfg.MaxBytesForLevel(1))
	}
	for i := 0; i < s.cfg.L0CompactionTrigger; i++ {
		s.mustFlush(50, "l0", false)
	}
	if !s.c.NeedsCompaction() || s.c.ClaimableUnits() < 2 {
		t.Fatalf("NeedsCompaction=%v ClaimableUnits=%d, want work at two levels", s.c.NeedsCompaction(), s.c.ClaimableUnits())
	}
	if avg := testing.AllocsPerRun(200, func() { s.c.NeedsCompaction() }); avg != 0 {
		t.Errorf("NeedsCompaction allocates %.1f per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { s.c.ClaimableUnits() }); avg != 0 {
		t.Errorf("ClaimableUnits allocates %.1f per call, want 0", avg)
	}
}

// testClaimStall: a worker that finds the only unit claimed counts a
// conflict and starts the stall clock; the clock stops when the tree goes
// idle, so the idle time until the next flush is not charged as stall.
func testClaimStall(t *testing.T, open OpenFunc) {
	s := openStore(t, open, vfs.NewMem())
	defer s.c.Close()
	fillL0 := func() {
		for i := 0; i < s.cfg.L0CompactionTrigger; i++ {
			s.mustFlush(100, "l0", false)
		}
	}
	fillL0()

	// A peer claims the level-0 unit — the only work — and parks in it.
	release := s.host.park(1)
	peer := make(chan error, 1)
	go func() {
		_, err := s.c.CompactOnce()
		peer <- err
	}()
	<-s.host.parked
	if m := s.c.Metrics(); m.UnitsInflight != 1 || m.PeakUnitsInflight != 1 || m.PeakLevelUnits[0] != 1 {
		t.Errorf("inflight=%d peak=%d level-0 peak=%d with one unit running, want 1/1/1",
			m.UnitsInflight, m.PeakUnitsInflight, m.PeakLevelUnits[0])
	}

	if did, err := s.c.CompactOnce(); did || err != nil {
		t.Fatalf("CompactOnce = %v, %v with the only unit claimed", did, err)
	}
	if got := s.c.Metrics().ClaimConflicts; got != 1 {
		t.Errorf("ClaimConflicts = %d, want 1", got)
	}
	const held = 20 * time.Millisecond
	time.Sleep(held)
	release()
	if err := <-peer; err != nil {
		t.Fatal(err)
	}

	// The peer's next look finds the tree idle: that ends the stall.
	if did, err := s.c.CompactOnce(); did || err != nil {
		t.Fatalf("CompactOnce = %v, %v on an idle tree", did, err)
	}
	m := s.c.Metrics()
	if m.UnitsInflight != 0 {
		t.Errorf("UnitsInflight = %d on an idle tree", m.UnitsInflight)
	}
	stall := time.Duration(m.ClaimStallNanos)
	if stall < held {
		t.Errorf("ClaimStallNanos = %v once the contended unit finished, want at least the %v it was held", stall, held)
	}

	// Idle time must not be charged when work next appears.
	const idle = 100 * time.Millisecond
	time.Sleep(idle)
	fillL0()
	if did, err := s.c.CompactOnce(); !did || err != nil {
		t.Fatalf("CompactOnce = %v, %v with level 0 full", did, err)
	}
	if extra := time.Duration(s.c.Metrics().ClaimStallNanos) - stall; extra != 0 {
		t.Errorf("ClaimStallNanos grew by %v across an idle gap of %v", extra, idle)
	}
}

// overfillLevelOne spreads a first round of data over levels 1 and 2, then
// pushes a second round into level 1 only: level 1 ends up over its
// threshold above a populated level 2, so most of its units are merges
// (which reach the host), not trivial moves, and level 0 is empty.
func (s *store) overfillLevelOne() {
	s.t.Helper()
	for round, flushes := range []int{30, 40} {
		for b := 0; b < flushes; b++ {
			s.mustFlush(300, fmt.Sprintf("r%d", round), false)
		}
		for first := true; ; first = false {
			did, err := s.c.CompactOnce()
			if err != nil {
				s.t.Fatal(err)
			}
			if !did || (round == 1 && first) {
				break
			}
		}
	}
	m := s.c.Metrics()
	if m.LevelFiles[0] != 0 || m.LevelFiles[2] == 0 || m.LevelBytes[1] < s.cfg.MaxBytesForLevel(1) || s.c.ClaimableUnits() < 2 {
		s.t.Fatalf("level files %v, level bytes %v, %d claimable units: want an empty level 0, level 1 over %d bytes, data in level 2 and two units to claim",
			m.LevelFiles, m.LevelBytes, s.c.ClaimableUnits(), s.cfg.MaxBytesForLevel(1))
	}
}

// parkUnits claims units one at a time until n are parked in the host, and
// returns the gate and the channel their workers report on. A unit that
// finishes first is a trivial move (leveled, into a gap of the next level):
// it never asks the host for the smallest snapshot.
func (s *store) parkUnits(n int) (release func(), errs chan error) {
	s.t.Helper()
	release = s.host.park(n)
	errs = make(chan error, n)
	for parked := 0; parked < n; {
		go func() {
			did, err := s.c.CompactOnce()
			if err == nil && !did {
				err = fmt.Errorf("no unit was claimable")
			}
			errs <- err
		}()
		select {
		case <-s.host.parked:
			parked++
		case err := <-errs:
			if err != nil {
				release()
				s.t.Fatalf("with %d units parked: %v", parked, err)
			}
		}
	}
	return release, errs
}

// testParallelUnits parks two units of one level in flight at once and
// checks that the core counts them as two: the unit counters and their
// high-water marks are what the engine's pool sizing and the parallelism
// figures in the benchmarks read.
func testParallelUnits(t *testing.T, open OpenFunc) {
	s := openStore(t, open, vfs.NewMem())
	defer s.c.Close()
	s.overfillLevelOne()
	if m := s.c.Metrics(); m.PeakUnitsInflight != 1 || m.PeakLevelUnits[1] != 1 {
		t.Fatalf("peak units %d, level-1 peak %d after a serial run, want 1 and 1", m.PeakUnitsInflight, m.PeakLevelUnits[1])
	}

	release, errs := s.parkUnits(2)
	m := s.c.Metrics()
	if m.UnitsInflight != 2 || m.PeakUnitsInflight != 2 || m.PeakLevelUnits[1] != 2 {
		t.Errorf("inflight=%d peak=%d level-1 peak=%d with two level-1 units running, want 2/2/2",
			m.UnitsInflight, m.PeakUnitsInflight, m.PeakLevelUnits[1])
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	m = s.c.Metrics()
	if m.UnitsInflight != 0 || m.PeakUnitsInflight != 2 || m.PeakLevelUnits[1] != 2 {
		t.Errorf("inflight=%d peak=%d level-1 peak=%d after both finished, want 0/2/2",
			m.UnitsInflight, m.PeakUnitsInflight, m.PeakLevelUnits[1])
	}
	s.verify()
}

// unitsOf groups what the core's claims hold by unit: the levels of the
// running units, sorted.
func unitsOf(held map[base.FileNum]*treebase.Unit) []int {
	seen := map[*treebase.Unit]bool{}
	var levels []int
	for _, u := range held {
		if !seen[u] {
			seen[u] = true
			levels = append(levels, u.Level)
		}
	}
	sort.Ints(levels)
	return levels
}

// testClaims reads the core's claims with three units parked, the level-0
// unit and two of level 1: deeper levels stay claimable beside the level-0
// unit; two units of one level hold disjoint tables (CheckInvariants: every
// table a running unit reads is held by that unit and no other); the level-0
// unit is exclusive — no second one starts over the tables flushed
// meanwhile; and nothing is held once the units are released.
func testClaims(t *testing.T, open OpenFunc) {
	s := openStore(t, open, vfs.NewMem())
	defer s.c.Close()
	s.overfillLevelOne()
	// Level 0 fills over a narrow key range, so that in a leveled tree its
	// unit holds only a part of level 1 as targets.
	fillL0 := func(tag string) {
		for i := 0; i < s.cfg.L0CompactionTrigger; i++ {
			s.flushRange(0, 500, fmt.Sprintf("%s-%d", tag, i), true)
		}
	}
	fillL0("held")
	release, errs := s.parkUnits(3)
	defer release()
	if got := unitsOf(s.c.Claimed()); fmt.Sprint(got) != "[0 1 1]" {
		t.Fatalf("claims held by units of levels %v, want the level-0 unit and two of level 1", got)
	}
	s.checkInvariants()

	fillL0("free")
	for did := true; did; {
		var err error
		if did, err = s.c.CompactOnce(); err != nil {
			t.Fatal(err)
		}
		s.checkInvariants()
	}
	m := s.c.Metrics()
	if m.PeakLevelUnits[0] != 1 || m.LevelFiles[0] != 2*s.cfg.L0CompactionTrigger || m.ClaimConflicts == 0 {
		t.Errorf("level-0 peak %d, %d level-0 tables, %d claim conflicts: want one level-0 unit at a time, both fills waiting and a conflict counted",
			m.PeakLevelUnits[0], m.LevelFiles[0], m.ClaimConflicts)
	}
	release()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if held := s.c.Claimed(); len(held) != 0 {
		t.Fatalf("%d tables still held after the units finished", len(held))
	}
	s.verify()
}

// flushRange writes every key of [lo, hi) tagged tag into level 0; with
// ingest the keys are offered as guards.
func (s *store) flushRange(lo, hi int, tag string, ingest bool) {
	s.t.Helper()
	mem := memtable.New()
	for i := lo; i < hi; i++ {
		k, v := key(i), fmt.Sprintf("%s-%d", tag, i)
		s.seq++
		mem.Set([]byte(k), s.seq, base.KindSet, []byte(v))
		if ingest {
			s.c.Ingest([]byte(k))
		}
		s.want[k] = v
	}
	if err := s.c.Flush(mem.NewIter(), nil, s.c.NewFileNum(), s.seq); err != nil {
		s.t.Fatal(err)
	}
}

// testGuardSplit: a unit holds a group while a peer from the level above
// commits a guard inside it (§3.3), which moves some of the held tables
// under the new guard. The claim has to move with them: a worker that took
// the new guard's group as free would merge a table a second time, and
// whichever of the two units installed last would find its input gone.
// (A leveled tree has no guards and moves its first unit without parking:
// the same steps run and hold trivially.)
func testGuardSplit(t *testing.T, open OpenFunc) {
	s := openStore(t, open, vfs.NewMem(), func(cfg *base.Config) {
		cfg.L0CompactionTrigger = 1
		cfg.LevelBaseBytes = 1
		cfg.SizeRatioPct = -1
	})
	defer func() { s.c.Close() }()
	compactOnce := func(what string) {
		t.Helper()
		if did, err := s.c.CompactOnce(); !did || err != nil {
			t.Fatalf("%s: CompactOnce = %v, %v", what, did, err)
		}
		s.checkInvariants()
	}
	// Two tables far apart under no guard of level 1: none of their keys is
	// offered as a guard.
	s.flushRange(0, 1000, "low", false)
	compactOnce("low keys into level 1")
	s.flushRange(9000, 10000, "high", false)
	compactOnce("high keys into level 1")

	// Level 1 is over its threshold: the next unit takes both and parks.
	release := s.host.park(1)
	defer release()
	first := make(chan error, 1)
	go func() {
		_, err := s.c.CompactOnce()
		first <- err
	}()
	parked := false
	select {
	case <-s.host.parked:
		parked = true
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
		first <- nil
	}
	guarded := s.c.Metrics().GuardsPerLevel != nil
	if guarded && (!parked || len(s.c.Claimed()) != 2) {
		t.Fatalf("parked=%v holding %d tables, want the unit of both level-1 tables held in the host", parked, len(s.c.Claimed()))
	}

	// The level-0 unit of keys in between commits guards between the two
	// tables: the high one moves under the last of them.
	s.flushRange(4000, 6000, "mid", true)
	compactOnce("mid keys into level 1")
	if guarded && s.c.Metrics().GuardsPerLevel[1] == 0 {
		t.Fatal("no guard committed in level 1 between the held tables; the test is too weak")
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for did := true; did; {
				var err error
				if did, err = s.c.CompactOnce(); err != nil {
					t.Errorf("worker beside the parked unit: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	s.checkInvariants()
	release()
	if err := <-first; err != nil {
		t.Fatalf("the parked unit: %v", err)
	}
	s.verify()
	s.reopen(open)
	s.verify()
}

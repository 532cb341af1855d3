package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/batch"
	"pebblesdb/internal/vfs"
)

// TestCommitPipelineStress runs N writer goroutines committing mixed
// sync/async batches against M reader/iterator goroutines, asserting
// sequence-order visibility: a reader must never observe commit k+1's keys
// without commit k's, and never half of a batch. Sized to run in the CI
// short race job.
func TestCommitPipelineStress(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		e := openEngine(t, vfs.NewMem(), kind)
		defer e.Close()

		const (
			writers = 4
			commits = 120
		)
		key := func(w, i int, suffix string) []byte {
			return []byte(fmt.Sprintf("w%d-c%05d-%s", w, i, suffix))
		}

		// lastDone[w] is the newest commit index writer w has completed;
		// every index at or below it must be visible to later reads.
		var lastDone [writers]atomic.Int64
		for w := range lastDone {
			lastDone[w].Store(-1)
		}

		var wg sync.WaitGroup
		errCh := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < commits; i++ {
					b := batch.New()
					b.Set(key(w, i, "a"), []byte(fmt.Sprintf("v%05d", i)))
					b.Set(key(w, i, "b"), []byte(fmt.Sprintf("v%05d", i)))
					if err := e.Apply(b, i%5 == 0); err != nil {
						errCh <- err
						return
					}
					lastDone[w].Store(int64(i))
				}
			}(w)
		}

		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					w := rng.Intn(writers)

					// Completed commits must be visible.
					if done := lastDone[w].Load(); done >= 0 {
						if _, found, err := e.Get(key(w, int(done), "a"), nil, nil); err != nil {
							t.Errorf("get: %v", err)
							return
						} else if !found {
							t.Errorf("writer %d commit %d returned but invisible", w, done)
							return
						}
					}

					// If commit i is visible, commit i-1 and the rest of
					// commit i's batch must be too (the writer issues
					// commits in order; visibility publishes in sequence
					// order).
					i := 1 + rng.Intn(commits-1)
					if _, found, _ := e.Get(key(w, i, "a"), nil, nil); found {
						if _, f2, _ := e.Get(key(w, i, "b"), nil, nil); !f2 {
							t.Errorf("writer %d commit %d: saw half a batch", w, i)
							return
						}
						if _, f3, _ := e.Get(key(w, i-1, "a"), nil, nil); !f3 {
							t.Errorf("writer %d: commit %d visible before commit %d", w, i, i-1)
							return
						}
					}

					// An iterator snapshot must observe an exact prefix of
					// the writer's commits, each batch whole.
					it, err := e.NewIter(&IterOptions{
						Lower: []byte(fmt.Sprintf("w%d-c", w)),
						Upper: []byte(fmt.Sprintf("w%d-d", w)),
					})
					if err != nil {
						t.Errorf("iter: %v", err)
						return
					}
					seen := make(map[int]int)
					maxIdx := -1
					for it.First(); it.Valid(); it.Next() {
						var idx int
						var suffix string
						if _, err := fmt.Sscanf(string(it.Key()), "w"+fmt.Sprint(w)+"-c%05d-%s", &idx, &suffix); err != nil {
							t.Errorf("unparseable key %q", it.Key())
							it.Close()
							return
						}
						seen[idx]++
						if idx > maxIdx {
							maxIdx = idx
						}
					}
					it.Close()
					for i := 0; i <= maxIdx; i++ {
						if seen[i] != 2 {
							t.Errorf("writer %d: snapshot saw commit %d with %d/2 keys (max visible %d)",
								w, i, seen[i], maxIdx)
							return
						}
					}
				}
			}(r)
		}

		wg.Wait()
		close(stop)
		readers.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if t.Failed() {
			return
		}

		// Everything committed must be durable in the final state.
		for w := 0; w < writers; w++ {
			for i := 0; i < commits; i++ {
				if _, found, _ := e.Get(key(w, i, "a"), nil, nil); !found {
					t.Fatalf("writer %d commit %d missing after quiesce", w, i)
				}
			}
		}

		m := e.Metrics()
		if m.CommitGroups == 0 || m.CommitBatches < m.CommitGroups {
			t.Fatalf("implausible pipeline metrics: groups=%d batches=%d", m.CommitGroups, m.CommitBatches)
		}
		var histTotal int64
		for _, c := range m.CommitWaitHist {
			histTotal += c
		}
		if want := int64(writers * commits); histTotal != want {
			t.Fatalf("commit-wait histogram total = %d, want %d", histTotal, want)
		}
		if m.WALSyncs > m.SyncCommits {
			t.Fatalf("more fsyncs (%d) than sync commits (%d)", m.WALSyncs, m.SyncCommits)
		}
	})
}

// slowSyncFS delays every fsync, modeling a real disk, so that concurrent
// sync commits pile up behind the in-flight fsync and the group-commit
// amortization becomes deterministic enough to assert on.
type slowSyncFS struct {
	vfs.FS
	delay time.Duration
}

func (fs slowSyncFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{File: f, delay: fs.delay}, nil
}

type slowSyncFile struct {
	vfs.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestSyncAmortization asserts the acceptance criterion that N concurrent
// Sync committers trigger far fewer than N fsyncs: one WAL fsync covers
// every commit whose record reached the log before it.
func TestSyncAmortization(t *testing.T) {
	e := openEngine(t, slowSyncFS{FS: vfs.NewMem(), delay: 500 * time.Microsecond}, KindFLSM)
	defer e.Close()

	const (
		writers = 8
		commits = 30
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				b := batch.New()
				b.Set([]byte(fmt.Sprintf("s%d-%04d", w, i)), []byte("v"))
				if err := e.Apply(b, true); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	m := e.Metrics()
	if m.SyncCommits != writers*commits {
		t.Fatalf("sync commits = %d, want %d", m.SyncCommits, writers*commits)
	}
	if m.WALSyncs == 0 {
		t.Fatal("no WAL fsyncs recorded")
	}
	if m.WALSyncs > m.SyncCommits/2 {
		t.Fatalf("fsyncs not amortized: %d fsyncs for %d sync commits (%.2f syncs/commit)",
			m.WALSyncs, m.SyncCommits, m.SyncsPerCommit())
	}
	t.Logf("syncs/commit = %.3f (%d fsyncs / %d sync commits), mean group size %.2f",
		m.SyncsPerCommit(), m.WALSyncs, m.SyncCommits, m.CommitGroupSize())
}

// TestLoneWriterLeadsGroupsOfOne pins what a single writer gets from the
// pipeline: every commit leads a group of one, every sync commit gets its
// own fsync (there is nobody to share it with), and a key is visible the
// moment Apply returns. The memtable is small, so commits also cross
// rotations.
func TestLoneWriterLeadsGroupsOfOne(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		e := openEngine(t, vfs.NewMem(), kind)
		defer e.Close()

		const commits = 1000
		for i := 0; i < commits; i++ {
			key := []byte(fmt.Sprintf("lone%05d", i))
			b := batch.New()
			b.Set(key, make([]byte, 100))
			if err := e.Apply(b, i%2 == 0); err != nil {
				t.Fatal(err)
			}
			if _, found, err := e.Get(key, nil, nil); err != nil || !found {
				t.Fatalf("commit %d invisible after Apply returned: found=%v err=%v", i, found, err)
			}
		}

		m := e.Metrics()
		if m.CommitGroups != commits || m.CommitBatches != commits {
			t.Fatalf("groups=%d batches=%d, want %d each", m.CommitGroups, m.CommitBatches, commits)
		}
		if m.SyncCommits != commits/2 || m.WALSyncs != m.SyncCommits {
			t.Fatalf("fsyncs=%d sync commits=%d, want %d each", m.WALSyncs, m.SyncCommits, commits/2)
		}
		if m.Flushes == 0 {
			t.Fatal("no memtable rotated under the commits")
		}
	})
}

// TestCommitGroupingUnderContention checks that concurrent async writers
// actually form multi-batch groups.
func TestCommitGroupingUnderContention(t *testing.T) {
	e := openEngine(t, vfs.NewMem(), KindFLSM)
	defer e.Close()

	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := batch.New()
				b.Set([]byte(fmt.Sprintf("g%d-%04d", w, i)), []byte("v"))
				if err := e.Apply(b, false); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	m := e.Metrics()
	if m.CommitBatches != writers*200 {
		t.Fatalf("commit batches = %d, want %d", m.CommitBatches, writers*200)
	}
	t.Logf("groups=%d, mean size %.2f", m.CommitGroups, m.CommitGroupSize())
	if m.CommitGroups == m.CommitBatches {
		t.Log("warning: no grouping observed (single-core scheduler?)")
	}
}

// TestCommitPipelineTinyMemtable is the regression test for the
// follower/rotation deadlock: with a memtable small enough that rotations
// constantly overlap follower queuing, a follower that parked on commitMu
// while holding a leader-taken writer reservation would deadlock against
// the rotation quiescing that very reservation. Followers must never
// block on commitMu.
func TestCommitPipelineTinyMemtable(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		cfg := testConfig()
		cfg.MemtableSize = 2 << 10
		e, err := Open(cfg, vfs.NewMem(), "db", kind)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		const writers, commits = 16, 150
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < commits; i++ {
					b := batch.New()
					b.Set([]byte(fmt.Sprintf("t%02d-%04d", w, i)), []byte("0123456789abcdef"))
					if err := e.Apply(b, i%7 == 0); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for w := 0; w < writers; w++ {
			for i := 0; i < commits; i++ {
				if _, found, err := e.Get([]byte(fmt.Sprintf("t%02d-%04d", w, i)), nil, nil); err != nil || !found {
					t.Fatalf("writer %d commit %d: found=%v err=%v", w, i, found, err)
				}
			}
		}
	})
}

// TestGroupCommitSyncFailure drives concurrent sync committers into a
// sticky WAL fsync failure and asserts the group-failure contract: every
// waiter whose durability could not be honored gets an error (never a
// silent success), batches stay atomic (no reader sees half of one), the
// store degrades to read-only with reads still serving, Resume restores
// writability once the fault clears, and every write acknowledged before
// the fault — plus everything after Resume — survives a reopen.
func TestGroupCommitSyncFailure(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		mem := vfs.NewMem()
		// The sync delay piles concurrent committers up behind one fsync,
		// so the failure also reaches waiters whose fsync another
		// committer started.
		efs := vfs.NewErr(slowSyncFS{FS: mem, delay: 200 * time.Microsecond})
		cfg := testConfig()
		cfg.MaxBgRetries = -1 // fail fast; this test drives Resume itself
		cfg.BgRetryDelay = time.Millisecond
		e, err := Open(cfg, efs, "db", kind)
		if err != nil {
			t.Fatal(err)
		}

		if err := e.Set([]byte("base"), []byte("v"), true); err != nil {
			t.Fatal(err)
		}

		// Every fsync from here on fails (a dying device).
		efs.FailAt(efs.OpCount(), vfs.OpSync, nil, true)

		const writers = 8
		errs := make([]error, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				b := batch.New()
				b.Set([]byte(fmt.Sprintf("g%d-a", w)), []byte("v"))
				b.Set([]byte(fmt.Sprintf("g%d-b", w)), []byte("v"))
				errs[w] = e.Apply(b, true)
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err == nil {
				t.Fatalf("writer %d: sync commit acknowledged despite failed fsync", w)
			}
		}

		// The store is read-only; reads keep serving; batches are whole.
		if !e.ReadOnly() {
			t.Fatal("store not read-only after WAL sync failure")
		}
		if err := e.Set([]byte("rejected"), []byte("v"), true); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("write in read-only mode: err=%v, want ErrReadOnly", err)
		}
		if _, found, err := e.Get([]byte("base"), nil, nil); err != nil || !found {
			t.Fatalf("read in read-only mode: found=%v err=%v", found, err)
		}
		for w := 0; w < writers; w++ {
			_, fa, _ := e.Get([]byte(fmt.Sprintf("g%d-a", w)), nil, nil)
			_, fb, _ := e.Get([]byte(fmt.Sprintf("g%d-b", w)), nil, nil)
			if fa != fb {
				t.Fatalf("writer %d: half a batch visible (a=%v b=%v)", w, fa, fb)
			}
		}

		// The device recovers: Resume rotates to a fresh WAL and restores
		// writability.
		efs.Clear()
		if err := e.Resume(); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if e.ReadOnly() {
			t.Fatal("still read-only after Resume")
		}
		if err := e.Set([]byte("after"), []byte("v"), true); err != nil {
			t.Fatalf("sync write after resume: %v", err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		// Acked-before and acked-after writes are durable across reopen,
		// and batch atomicity holds in the recovered state too.
		e2, err := Open(testConfig(), mem, "db", kind)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		for _, k := range []string{"base", "after"} {
			if _, found, err := e2.Get([]byte(k), nil, nil); err != nil || !found {
				t.Fatalf("acked key %q after reopen: found=%v err=%v", k, found, err)
			}
		}
		for w := 0; w < writers; w++ {
			_, fa, _ := e2.Get([]byte(fmt.Sprintf("g%d-a", w)), nil, nil)
			_, fb, _ := e2.Get([]byte(fmt.Sprintf("g%d-b", w)), nil, nil)
			if fa != fb {
				t.Fatalf("writer %d: half a batch recovered (a=%v b=%v)", w, fa, fb)
			}
		}
	})
}

// TestCorruptBatchRejected checks that a malformed batch repr is rejected
// up front — before sequencing — so nothing is partially applied, nothing
// is published, and the store stays healthy for subsequent commits.
func TestCorruptBatchRejected(t *testing.T) {
	e := openEngine(t, vfs.NewMem(), KindFLSM)
	defer e.Close()

	corrupt, err := batch.FromRepr(append(make([]byte, 12), 0xff, 0x01, 0x02))
	if err != nil {
		t.Fatal(err)
	}
	// FromRepr trusts the header; make the count nonzero so it is not Empty.
	corrupt.Set([]byte("k"), []byte("v"))
	corruptRepr := corrupt.Repr()
	corruptRepr[12] = 0xff // clobber the first record's kind byte
	if err := e.Apply(corrupt, false); err == nil {
		t.Fatal("corrupt batch accepted")
	}
	before := base.SeqNum(0)
	if m := e.Metrics(); m.LastSeq != before {
		t.Fatalf("corrupt batch advanced seq to %d", m.LastSeq)
	}
	if err := e.Set([]byte("ok"), []byte("v"), false); err != nil {
		t.Fatalf("store poisoned by rejected batch: %v", err)
	}
	if _, found, _ := e.Get([]byte("ok"), nil, nil); !found {
		t.Fatal("write after rejected batch not visible")
	}
}

package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/vfs"
)

// faultConfig is testConfig with fast, bounded background retries so the
// failure tests exercise the retry loop without slowing the suite.
func faultConfig(retries int) *base.Config {
	cfg := testConfig()
	cfg.MaxBgRetries = retries
	cfg.BgRetryDelay = time.Millisecond
	return cfg
}

// TestFlushFailureDegradesAndResumes injects a sticky write-class failure
// under a forced flush and asserts the full degradation contract: the
// flush fails cleanly, the store flips to read-only (writes rejected with
// a wrapped ErrReadOnly, reads still serving), and once the fault clears,
// Resume restores writability and re-runs the interrupted flush without
// losing a single pre-failure write.
func TestFlushFailureDegradesAndResumes(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		mem := vfs.NewMem()
		efs := vfs.NewErr(mem)
		e, err := Open(faultConfig(1), efs, "db", kind)
		if err != nil {
			t.Fatal(err)
		}

		const n = 100
		key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
		for i := 0; i < n; i++ {
			if err := e.Set(key(i), []byte("v"), false); err != nil {
				t.Fatal(err)
			}
		}

		// Every storage-allocating op fails from here on: whichever op the
		// flush path hits first (WAL rotation, sstable build, manifest
		// append), the store must degrade cleanly rather than panic or
		// wedge.
		efs.FailAt(efs.OpCount(), vfs.OpWriteClass, nil, true)
		if err := e.Flush(); err == nil {
			t.Fatal("flush succeeded under sticky write failure")
		}
		if !e.ReadOnly() {
			t.Fatal("store not read-only after failed flush")
		}
		if err := e.Set([]byte("rejected"), []byte("v"), false); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("write in read-only mode: err=%v, want ErrReadOnly", err)
		}
		for i := 0; i < n; i++ {
			if _, found, err := e.Get(key(i), nil, nil); err != nil || !found {
				t.Fatalf("read-only mode lost key %d: found=%v err=%v", i, found, err)
			}
		}

		// The fault clears (disk freed, device back): Resume restores
		// writability and re-runs any interrupted flush with its original
		// stamp.
		efs.Clear()
		if err := e.Resume(); err != nil {
			t.Fatalf("resume after clearing fault: %v", err)
		}
		if e.ReadOnly() {
			t.Fatal("still read-only after Resume")
		}
		if err := e.Set([]byte("after"), []byte("v"), false); err != nil {
			t.Fatalf("write after resume: %v", err)
		}
		if err := e.Flush(); err != nil {
			t.Fatalf("flush after resume: %v", err)
		}
		m := e.Metrics()
		if m.BgRetryableErrors == 0 {
			t.Fatal("no retryable background error counted")
		}
		if m.Resumes != 1 {
			t.Fatalf("resumes = %d, want 1", m.Resumes)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		// Nothing leaked and nothing was lost: reopen on the raw FS and
		// check every key plus the orphan invariants.
		e2, err := Open(testConfig(), mem, "db", kind)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		for i := 0; i < n; i++ {
			if _, found, err := e2.Get(key(i), nil, nil); err != nil || !found {
				t.Fatalf("key %d missing after reopen: found=%v err=%v", i, found, err)
			}
		}
		if _, found, _ := e2.Get([]byte("after"), nil, nil); !found {
			t.Fatal("post-resume write missing after reopen")
		}
		assertNoOrphans(t, e2, mem)
	})
}

// assertNoOrphans checks the on-disk file set of a freshly reopened
// engine: no temp files survive, and the tree knows every table file —
// on reopen, those the recovered version lists (orphans from failed
// flushes/compactions must have been removed, either at failure time or by
// the open-time sweep).
func assertNoOrphans(t *testing.T, e *Engine, fs vfs.FS) {
	t.Helper()
	if err := e.tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if ft, _, ok := base.ParseFilename(name); ok && ft == base.FileTypeTemp {
			t.Errorf("orphan temp file %s", name)
		}
	}
}

// TestCorruptionIsPermanent asserts the permanent branch of the state
// machine: an error wrapping sstable.ErrCorrupt is never retried, counts
// as permanent, and Resume refuses to clear it.
func TestCorruptionIsPermanent(t *testing.T) {
	mem := vfs.NewMem()
	efs := vfs.NewErr(mem)
	e, err := Open(faultConfig(3), efs, "db", KindFLSM)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if err := e.Set([]byte("k"), []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	corrupt := fmt.Errorf("injected: %w", sstable.ErrCorrupt)
	efs.FailAt(efs.OpCount(), vfs.OpWriteClass, corrupt, true)
	if err := e.Flush(); err == nil {
		t.Fatal("flush succeeded under injected corruption")
	}
	if !e.ReadOnly() {
		t.Fatal("store not read-only after corruption")
	}
	m := e.Metrics()
	if m.BgPermanentErrors == 0 {
		t.Fatal("corruption not counted as permanent")
	}
	if m.BgRetries != 0 {
		t.Fatalf("corruption was retried %d times", m.BgRetries)
	}

	efs.Clear()
	err = e.Resume()
	if err == nil {
		t.Fatal("Resume cleared a permanent error")
	}
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, sstable.ErrCorrupt) {
		t.Fatalf("Resume error %v does not expose ErrReadOnly and the cause", err)
	}
	if !e.ReadOnly() {
		t.Fatal("store left permanent read-only mode")
	}
	// Reads keep serving even under a permanent degradation.
	if _, found, err := e.Get([]byte("k"), nil, nil); err != nil || !found {
		t.Fatalf("read under permanent degradation: found=%v err=%v", found, err)
	}
}

// TestENOSPCResume models the operational story the Resume API exists
// for: the disk fills mid-workload, writes start failing, the store
// degrades to read-only; the operator frees space and calls Resume; the
// store is writable again and nothing acknowledged was lost.
func TestENOSPCResume(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind Kind) {
		mem := vfs.NewMem()
		efs := vfs.NewErr(mem)
		e, err := Open(faultConfig(-1), efs, "db", kind)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		if err := e.Set([]byte("before"), []byte("v"), true); err != nil {
			t.Fatal(err)
		}

		efs.SetFull(true)
		// Writes fail once the full disk bites; sync commits hit it at the
		// fsync at the latest.
		var failed bool
		for i := 0; i < 50 && !failed; i++ {
			failed = e.Set([]byte(fmt.Sprintf("fill%04d", i)), []byte("v"), true) != nil
		}
		if !failed {
			t.Fatal("no write failed on a full disk")
		}
		if !e.ReadOnly() {
			t.Fatal("store not read-only after ENOSPC")
		}
		// Resume while the disk is still full must fail and leave the
		// store degraded: the fresh WAL cannot be created.
		if err := e.Resume(); err == nil {
			t.Fatal("Resume succeeded on a still-full disk")
		}
		if !e.ReadOnly() {
			t.Fatal("failed Resume cleared read-only mode")
		}

		efs.SetFull(false)
		if err := e.Resume(); err != nil {
			t.Fatalf("resume after space freed: %v", err)
		}
		if e.ReadOnly() {
			t.Fatal("still read-only after successful Resume")
		}
		if err := e.Set([]byte("after"), []byte("v"), true); err != nil {
			t.Fatalf("write after resume: %v", err)
		}
		for _, k := range []string{"before", "after"} {
			if _, found, err := e.Get([]byte(k), nil, nil); err != nil || !found {
				t.Fatalf("key %q: found=%v err=%v", k, found, err)
			}
		}
		// Resume on a healthy store is a no-op.
		if err := e.Resume(); err != nil {
			t.Fatalf("Resume on healthy store: %v", err)
		}
	})
}

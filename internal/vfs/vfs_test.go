package vfs

import (
	"errors"
	"io"
	"os"
	"testing"
	"time"
)

func writeFile(t *testing.T, fs FS, name, content string, sync bool) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, fs FS, name string) string {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := fs.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	return string(buf)
}

// TestFSConformance holds every filesystem to the one contract the store
// relies on — append-only files, positioned reads with io.EOF at the end,
// rename replacing its target, immediate remove, sorted List, Stat — so a
// new implementation or interposer hook is one more row, not a new test.
func TestFSConformance(t *testing.T) {
	impls := []struct {
		name string
		fs   func(t *testing.T) (fs FS, root string)
	}{
		{"mem", func(*testing.T) (FS, string) { return NewMem(), "db" }},
		{"os", func(t *testing.T) (FS, string) { return Default, t.TempDir() }},
		{"counting", func(*testing.T) (FS, string) { return NewCounting(NewMem()), "db" }},
		{"err", func(*testing.T) (FS, string) { return NewErr(NewMem()), "db" }},
		{"fenced", func(*testing.T) (FS, string) { return NewFenced(NewMem()), "db" }},
		{"slow", func(*testing.T) (FS, string) {
			fs := NewSlow(NewMem(), OpRead)
			fs.SetDelay(time.Microsecond)
			return fs, "db"
		}},
		{"stacked", func(*testing.T) (FS, string) { return NewCounting(NewErr(NewFenced(NewCrash()))), "db" }},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			fs, root := impl.fs(t)
			if err := fs.MkdirAll(root); err != nil {
				t.Fatal(err)
			}
			a, b := root+"/2.sst", root+"/1.sst"

			// Create + append: two writes land back to back.
			f, err := fs.Create(a)
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range []string{"ab", "cd"} {
				if n, err := f.Write([]byte(part)); n != 2 || err != nil {
					t.Fatalf("write %q: n=%d err=%v", part, n, err)
				}
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, fs, a); got != "abcd" {
				t.Fatalf("appended content %q", got)
			}
			if sz, err := fs.Stat(a); sz != 4 || err != nil {
				t.Fatalf("stat: size=%d err=%v", sz, err)
			}

			// Read-at: inside, short at the end, and past it.
			r, err := fs.Open(a)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 2)
			if n, err := r.ReadAt(buf, 1); n != 2 || err != nil || string(buf) != "bc" {
				t.Fatalf("read at 1: n=%d err=%v buf=%q", n, err, buf)
			}
			big := make([]byte, 10)
			if n, err := r.ReadAt(big, 0); n != 4 || err != io.EOF {
				t.Fatalf("short read: n=%d err=%v", n, err)
			}
			if n, err := r.ReadAt(big, 100); n != 0 || err != io.EOF {
				t.Fatalf("read past EOF: n=%d err=%v", n, err)
			}
			if _, err := r.ReadAt(big, -1); err == nil || err == io.EOF {
				t.Fatalf("read at a negative offset: err=%v", err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}

			// Sorted List of names, other directories left out.
			writeFile(t, fs, b, "old", false)
			names, err := fs.List(root)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 2 || names[0] != "1.sst" || names[1] != "2.sst" {
				t.Fatalf("list: %v", names)
			}

			// Rename replaces its target; the old name is gone.
			if err := fs.Rename(a, b); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open(a); !os.IsNotExist(err) {
				t.Fatalf("open of the renamed-away name: %v", err)
			}
			if got := readAll(t, fs, b); got != "abcd" {
				t.Fatalf("rename target holds %q", got)
			}
			if names, _ := fs.List(root); len(names) != 1 || names[0] != "1.sst" {
				t.Fatalf("list after rename: %v", names)
			}

			// Create truncates; remove is immediate and not repeatable.
			writeFile(t, fs, b, "x", false)
			if got := readAll(t, fs, b); got != "x" {
				t.Fatalf("re-created file holds %q", got)
			}
			if err := fs.Remove(b); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove(b); !os.IsNotExist(err) {
				t.Fatalf("double remove: %v", err)
			}
			if _, err := fs.Stat(b); !os.IsNotExist(err) {
				t.Fatalf("stat of a removed file: %v", err)
			}
		})
	}
}

// TestFenceCutsOpenFiles: after Fence every operation fails with ErrFenced,
// including on handles opened earlier; Close alone still releases.
func TestFenceCutsOpenFiles(t *testing.T) {
	mem := NewMem()
	fs := NewFenced(mem)
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	fs.Fence()
	_, werr := f.Write([]byte("d"))
	_, rerr := f.ReadAt(make([]byte, 1), 0)
	_, cerr := fs.Create("g")
	_, lerr := fs.List(".")
	for i, err := range []error{werr, rerr, f.Sync(), cerr, lerr, fs.Remove("f"), fs.Rename("f", "g")} {
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("operation %d after Fence: %v", i, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close after Fence: %v", err)
	}
	if got := readAll(t, mem, "f"); got != "abc" {
		t.Fatalf("fenced write reached the file: %q", got)
	}
}

// TestSlowFSDelaysItsClassOnly: the latency injector holds up the
// operations of its mask, on files opened before the delay was set too, and
// no others.
func TestSlowFSDelaysItsClassOnly(t *testing.T) {
	const delay = 20 * time.Millisecond
	fs := NewSlow(NewMem(), OpRead)
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fs.SetDelay(delay)
	start := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := f.Write([]byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took >= delay {
		t.Fatalf("ten writes took %v on a filesystem that delays reads", took)
	}
	start = time.Now()
	if _, err := f.ReadAt(make([]byte, 3), 0); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("a read took %v, want at least %v", took, delay)
	}
}

func TestCountingFS(t *testing.T) {
	fs := NewCounting(NewMem())
	writeFile(t, fs, "db/000001.sst", "12345678", false)
	writeFile(t, fs, "db/000002.log", "1234", false)
	writeFile(t, fs, "db/MANIFEST-000003", "12", false)
	readAll(t, fs, "db/000001.sst")

	st := fs.Stats()
	if st.BytesWritten[CatTable] != 8 {
		t.Fatalf("table bytes %d", st.BytesWritten[CatTable])
	}
	if st.BytesWritten[CatLog] != 4 {
		t.Fatalf("log bytes %d", st.BytesWritten[CatLog])
	}
	if st.BytesWritten[CatManifest] != 2 {
		t.Fatalf("manifest bytes %d", st.BytesWritten[CatManifest])
	}
	if st.TotalWritten() != 14 {
		t.Fatalf("total written %d", st.TotalWritten())
	}
	if st.BytesRead[CatTable] != 8 {
		t.Fatalf("table read bytes %d", st.BytesRead[CatTable])
	}

	st2 := fs.Stats().Sub(st)
	if st2.TotalWritten() != 0 || st2.TotalRead() != 0 {
		t.Fatal("sub of identical snapshots should be zero")
	}
}

func TestCrashFSDropsUnsynced(t *testing.T) {
	fs := NewCrash()

	// Synced data survives; unsynced tail lost.
	f, _ := fs.Create("a")
	f.Write([]byte("durable"))
	f.Sync()
	f.Write([]byte("-lost"))
	f.Close()

	// Never-synced file vanishes entirely.
	g, _ := fs.Create("b")
	g.Write([]byte("gone"))
	g.Close()

	fs.Crash()

	af, err := fs.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, _ := af.ReadAt(buf, 0)
	if string(buf[:n]) != "durable" {
		t.Fatalf("after crash: %q", buf[:n])
	}
	if _, err := fs.Open("b"); err == nil {
		t.Fatal("unsynced file should vanish")
	}
}

func TestCrashFSRenameDurable(t *testing.T) {
	fs := NewCrash()
	f, _ := fs.Create("tmp")
	f.Write([]byte("MANIFEST-000001\n"))
	f.Close()
	if err := fs.Rename("tmp", "CURRENT"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if _, err := fs.Open("CURRENT"); err != nil {
		t.Fatalf("renamed file should survive crash: %v", err)
	}
}

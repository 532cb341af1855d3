package pebblesdb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"pebblesdb/internal/vfs"
)

// TestBatchReuseDoesNotCorrupt is the regression test for a bug where the
// memtable aliased the batch's buffer: reusing a batch after Apply
// overwrote previously committed values.
func TestBatchReuseDoesNotCorrupt(t *testing.T) {
	db, err := Open("db", testOptions(PresetPebblesDB))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	b := db.NewBatch()
	const n = 2000
	for i := 0; i < n; i++ {
		b.Reset()
		k := fmt.Sprintf("key%05d", i)
		v := fmt.Sprintf("value-%08d", i)
		b.Set([]byte(k), []byte(v))
		if err := db.Apply(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%05d", i)
		want := fmt.Sprintf("value-%08d", i)
		got, ok, err := db.Get([]byte(k), nil)
		if err != nil || !ok || string(got) != want {
			t.Fatalf("key %s: got %q ok=%v err=%v want %q", k, got, ok, err, want)
		}
	}
}

// TestValueBufferReuse verifies Put copies the value: the paper's
// benchmarks reuse one value buffer across millions of puts.
func TestValueBufferReuse(t *testing.T) {
	db, err := Open("db", testOptions(PresetPebblesDB))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	buf := make([]byte, 16)
	for i := 0; i < 100; i++ {
		copy(buf, fmt.Sprintf("%016d", i))
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, ok, _ := db.Get([]byte(fmt.Sprintf("k%03d", i)), nil)
		if !ok || string(got) != fmt.Sprintf("%016d", i) {
			t.Fatalf("k%03d: %q", i, got)
		}
	}
}

func TestAllPresetsOpenWithDefaults(t *testing.T) {
	for _, p := range allPresets {
		o := p.Options()
		o.WithFS(vfs.NewMem())
		db, err := Open("db", o)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := db.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatalf("%s put: %v", p, err)
		}
		if v, ok, _ := db.Get([]byte("k"), nil); !ok || string(v) != "v" {
			t.Fatalf("%s roundtrip failed", p)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("%s close: %v", p, err)
		}
	}
}

func TestPresetStrings(t *testing.T) {
	names := map[Preset]string{
		PresetPebblesDB:    "PebblesDB",
		PresetHyperLevelDB: "HyperLevelDB",
		PresetLevelDB:      "LevelDB",
		PresetRocksDB:      "RocksDB",
		PresetPebblesDB1:   "PebblesDB-1",
	}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("%d: %q want %q", p, p.String(), want)
		}
	}
}

func TestClosedDBRejectsEverything(t *testing.T) {
	db, err := Open("db", testOptions(PresetPebblesDB))
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("put: %v", err)
	}
	if _, _, err := db.Get([]byte("k"), nil); err != ErrClosed {
		t.Fatalf("get: %v", err)
	}
	if err := db.Delete([]byte("k")); err != ErrClosed {
		t.Fatalf("delete: %v", err)
	}
	if _, err := db.NewIter(nil); err != ErrClosed {
		t.Fatalf("iter: %v", err)
	}
	if err := db.Flush(); err != ErrClosed {
		t.Fatalf("flush: %v", err)
	}
	if err := db.Close(); err != ErrClosed {
		t.Fatalf("double close: %v", err)
	}
}

func TestDumpDescribesLayout(t *testing.T) {
	db, err := Open("db", testOptions(PresetPebblesDB))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5000; i++ {
		db.Put([]byte(fmt.Sprintf("key%06d", i*7919%100000)), bytes.Repeat([]byte("v"), 64))
	}
	db.CompactAll()
	var buf bytes.Buffer
	db.Dump(&buf)
	out := buf.String()
	if !strings.Contains(out, "FLSM tree") || !strings.Contains(out, "level") {
		t.Fatalf("dump missing structure:\n%s", out)
	}
}

func TestMetricsAccounting(t *testing.T) {
	db, err := Open("db", testOptions(PresetPebblesDB))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key%05d", i)), val)
	}
	db.WaitIdle()
	m := db.Metrics()
	if m.UserBytesWritten != 2000*(8+100) {
		t.Fatalf("user bytes %d", m.UserBytesWritten)
	}
	if m.WriteAmplification() < 1 {
		t.Fatalf("write amp %f", m.WriteAmplification())
	}
	if m.IO.TotalWritten() == 0 || m.Flushes == 0 {
		t.Fatalf("io accounting empty: %+v", m.IO)
	}
}

func TestSnapshotIteratorView(t *testing.T) {
	db, err := Open("db", testOptions(PresetPebblesDB))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("old%03d", i)), []byte("v"))
	}
	snap := db.NewSnapshot()
	defer snap.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("new%03d", i)), []byte("v"))
	}
	db.Delete([]byte("old000"))

	it, err := db.NewIterAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if !strings.HasPrefix(string(it.Key()), "old") {
			t.Fatalf("snapshot iterator sees later key %q", it.Key())
		}
		n++
	}
	if n != 100 {
		t.Fatalf("snapshot iterator saw %d keys, want 100 (deletion must be invisible)", n)
	}
}

// TestParallelSeeksGiveSameResults exercises the §4.2 parallel-seek path
// against the serial path on identical data. Seeks fan out only into a
// last-level guard of several sstables and only while table reads wait, so
// the tree is shallow enough for the fill to reach its last level, it is
// left uncompacted, and reads take 100µs from the first seek on.
func TestParallelSeeksGiveSameResults(t *testing.T) {
	results := map[bool][]string{}
	for _, parallel := range []bool{false, true} {
		o := testOptions(PresetPebblesDB)
		slow := vfs.NewSlow(vfs.NewMem(), vfs.OpRead)
		o.WithFS(slow)
		o.NumLevels = 4
		o.ParallelSeeks = parallel
		db, err := Open("db", o)
		if err != nil {
			t.Fatal(err)
		}
		val := make([]byte, 100)
		for i := 0; i < 20000; i++ {
			db.Put([]byte(fmt.Sprintf("key%06d", i*31%50000)), val)
		}
		slow.SetDelay(100 * time.Microsecond)

		it, err := db.NewIter(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i := 0; i < 200; i++ {
			probe := fmt.Sprintf("key%06d", i*257%50000)
			it.SeekGE([]byte(probe))
			if it.Valid() {
				got = append(got, string(it.Key()))
			} else {
				got = append(got, "<end>")
			}
		}
		it.Close()
		if fanOuts := db.Metrics().IterSeekFanOuts; (fanOuts > 0) != parallel {
			t.Fatalf("ParallelSeeks=%v: %d seeks fanned out", parallel, fanOuts)
		}
		db.Close()
		results[parallel] = got
	}
	for i := range results[false] {
		if results[false][i] != results[true][i] {
			t.Fatalf("seek %d: serial %q parallel %q", i, results[false][i], results[true][i])
		}
	}
}

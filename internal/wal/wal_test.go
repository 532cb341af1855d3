package wal

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pebblesdb/internal/vfs"
)

func roundtrip(t *testing.T, records [][]byte) {
	t.Helper()
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	for _, r := range records {
		if err := w.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	rf, _ := fs.Open("log")
	size, _ := fs.Stat("log")
	r, err := NewReader(rf, size)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range records {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRoundtripSmallRecords(t *testing.T) {
	roundtrip(t, [][]byte{
		[]byte("one"), []byte("two"), []byte("three"), {}, []byte("after-empty"),
	})
}

func TestRoundtripLargeRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var records [][]byte
	for _, size := range []int{BlockSize - headerSize, BlockSize, BlockSize + 1, 3 * BlockSize, 100000} {
		r := make([]byte, size)
		rng.Read(r)
		records = append(records, r)
	}
	roundtrip(t, records)
}

func TestRoundtripManyMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var records [][]byte
	for i := 0; i < 500; i++ {
		r := make([]byte, rng.Intn(2000))
		rng.Read(r)
		records = append(records, r)
	}
	roundtrip(t, records)
}

func TestBlockBoundaryPadding(t *testing.T) {
	// A record that leaves less than a header of space forces padding.
	first := make([]byte, BlockSize-headerSize-3) // leaves 3 bytes
	roundtrip(t, [][]byte{first, []byte("next")})
}

func TestTornTailIgnored(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	w.AddRecord([]byte("complete"))
	w.AddRecord([]byte("will-be-torn"))
	f.Close()

	size, _ := fs.Stat("log")
	rf, _ := fs.Open("log")
	data := make([]byte, size)
	rf.ReadAt(data, 0)
	rf.Close()

	// Chop bytes off the tail: the first record must still decode, the
	// torn one must terminate the log cleanly.
	for cut := 1; cut < 12; cut++ {
		r := NewReaderBytes(data[:len(data)-cut])
		got, err := r.Next()
		if err != nil || string(got) != "complete" {
			t.Fatalf("cut %d: first record: %q %v", cut, got, err)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("cut %d: torn tail should read as EOF, got %v", cut, err)
		}
	}
}

func TestCorruptTailCRC(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	w.AddRecord([]byte("good"))
	w.AddRecord([]byte("bad"))
	f.Close()

	size, _ := fs.Stat("log")
	rf, _ := fs.Open("log")
	data := make([]byte, size)
	rf.ReadAt(data, 0)
	rf.Close()

	// Flip a payload byte in the second record.
	data[len(data)-1] ^= 0xff
	r := NewReaderBytes(data)
	if got, err := r.Next(); err != nil || string(got) != "good" {
		t.Fatalf("first record: %q %v", got, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("corrupt tail should read as EOF, got %v", err)
	}
}

func TestReaderEmptyFile(t *testing.T) {
	r := NewReaderBytes(nil)
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty log: %v", err)
	}
}

func TestManyRecordsAcrossBlocks(t *testing.T) {
	var records [][]byte
	for i := 0; i < 2000; i++ {
		records = append(records, []byte(fmt.Sprintf("record-%06d-%s", i, bytes.Repeat([]byte("x"), i%97))))
	}
	roundtrip(t, records)
}

// countingSyncFile wraps a vfs.File and counts (slow) fsyncs.
type countingSyncFile struct {
	vfs.File
	syncs atomic.Int64
}

func (f *countingSyncFile) Sync() error {
	f.syncs.Add(1)
	time.Sleep(200 * time.Microsecond)
	return f.File.Sync()
}

// TestSyncWaitAmortizes checks the sync-request queue: concurrent
// SyncWait callers share fsyncs, and every caller still gets durability
// (an fsync that started at or after its request).
func TestSyncWaitAmortizes(t *testing.T) {
	fs := vfs.NewMem()
	raw, _ := fs.Create("log")
	f := &countingSyncFile{File: raw}
	w := NewWriter(f)
	var counted int64
	w.SyncCounter = &counted

	const callers = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				mu.Lock()
				err := w.AddRecord([]byte(fmt.Sprintf("rec-%d-%d", c, i)))
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.SyncWait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	total := int64(callers * 10)
	if f.syncs.Load() != counted {
		t.Fatalf("SyncCounter %d != physical syncs %d", counted, f.syncs.Load())
	}
	if got := f.syncs.Load(); got >= total {
		t.Fatalf("no amortization: %d fsyncs for %d SyncWait calls", got, total)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.SyncWait(); err != ErrWriterClosed {
		t.Fatalf("SyncWait after Close = %v, want ErrWriterClosed", err)
	}
}

// TestCloseWaitsForRefs checks that Close drains references: a pinned
// writer must stay usable for SyncWait until Unref.
func TestCloseWaitsForRefs(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("log")
	w := NewWriter(f)
	if err := w.AddRecord([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	w.Ref()
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	// Close must not complete while the ref is held.
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while ref held", err)
	case <-time.After(10 * time.Millisecond):
	}
	if err := w.SyncWait(); err != nil {
		t.Fatalf("SyncWait on referenced writer: %v", err)
	}
	w.Unref()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

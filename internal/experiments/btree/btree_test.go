package btree

import (
	"fmt"
	"math/rand"
	"testing"

	"pebblesdb/internal/vfs"
)

func openStore(t *testing.T, fs vfs.FS) *Store {
	t.Helper()
	s, err := Open(fs, "bt", Options{PageSize: 1 << 10, CheckpointEvery: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := openStore(t, vfs.NewMem())
	defer s.Close()

	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get([]byte("k")); ok {
		t.Fatal("deleted key visible")
	}
}

func TestManyKeysSplitPages(t *testing.T) {
	s := openStore(t, vfs.NewMem())
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	model := map[string]string{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key%07d", rng.Intn(100000))
		v := fmt.Sprintf("value%d", i)
		model[k] = v
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.Pages < 10 {
		t.Fatalf("expected page splits, got %d pages", m.Pages)
	}
	for k, v := range model {
		got, ok, err := s.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("get %q: %q %v %v", k, got, ok, err)
		}
	}
}

func TestScan(t *testing.T) {
	s := openStore(t, vfs.NewMem())
	defer s.Close()
	for i := 0; i < 1000; i++ {
		s.Put([]byte(fmt.Sprintf("key%05d", i)), []byte("v"))
	}
	n, err := s.Scan([]byte("key00500"), nil, 100)
	if err != nil || n != 100 {
		t.Fatalf("scan: %d %v", n, err)
	}
	// Scan near the end returns fewer.
	n, err = s.Scan([]byte("key00990"), nil, 100)
	if err != nil || n != 10 {
		t.Fatalf("tail scan: %d %v", n, err)
	}
}

func TestRecoveryFromJournalAndPages(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs)
	for i := 0; i < 3000; i++ {
		s.Put([]byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Delete([]byte("key00007"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, fs)
	defer s2.Close()
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key%05d", i)
		v, ok, err := s2.Get([]byte(k))
		if i == 7 {
			if ok {
				t.Fatal("deleted key recovered")
			}
			continue
		}
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered %q: %q %v %v", k, v, ok, err)
		}
	}
}

func TestRecoveryWithoutClose(t *testing.T) {
	// Journal-only durability: kill without Close, reopen, verify.
	fs := vfs.NewMem()
	s := openStore(t, fs)
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("key%05d", i)), []byte("v"))
	}
	// No Close: journal holds the un-checkpointed tail.
	s2 := openStore(t, fs)
	defer s2.Close()
	for i := 0; i < 500; i++ {
		if _, ok, _ := s2.Get([]byte(fmt.Sprintf("key%05d", i))); !ok {
			t.Fatalf("key %d lost without close", i)
		}
	}
}

func TestWriteAmplificationIsHigh(t *testing.T) {
	// The point of this substrate (§2.2): small random updates on a
	// page-based B+ tree burn far more storage writes than user bytes.
	s := openStore(t, vfs.NewMem())
	defer s.Close()
	rng := rand.New(rand.NewSource(2))
	val := make([]byte, 128)
	for i := 0; i < 20000; i++ {
		rng.Read(val)
		k := fmt.Sprintf("key%08d", rng.Intn(1000000))
		if err := s.Put([]byte(k), val); err != nil {
			t.Fatal(err)
		}
	}
	s.Checkpoint()
	m := s.Metrics()
	wa := m.WriteAmplification()
	if wa < 3 {
		t.Fatalf("expected page-granular write amplification >> 1, got %.2f", wa)
	}
}

func TestDeleteAllKeysLeavesStoreUsable(t *testing.T) {
	s := openStore(t, vfs.NewMem())
	defer s.Close()
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	for i := 0; i < 500; i++ {
		s.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	if _, ok, _ := s.Get([]byte("k0001")); ok {
		t.Fatal("key survived delete-all")
	}
	if err := s.Put([]byte("after"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get([]byte("after")); !ok {
		t.Fatal("store unusable after delete-all")
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s := openStore(t, vfs.NewMem())
	s.Close()
	if err := s.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("put after close: %v", err)
	}
	if _, _, err := s.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("get after close: %v", err)
	}
}

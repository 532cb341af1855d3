package pebblesdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pebblesdb/internal/vfs"
)

func testOptions(p Preset) *Options {
	o := p.Options()
	o.WithFS(vfs.NewMem())
	// Small sizes so tests exercise flush and compaction quickly.
	o.MemtableSize = 64 << 10
	o.LevelBaseBytes = 256 << 10
	o.TargetFileSize = 64 << 10
	o.TopLevelBits = 10
	o.BitDecrement = 1
	return o
}

var allPresets = []Preset{PresetPebblesDB, PresetHyperLevelDB, PresetLevelDB, PresetRocksDB, PresetPebblesDB1}

func TestPutGetAllPresets(t *testing.T) {
	for _, p := range allPresets {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			db, err := Open("db", testOptions(p))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			const n = 5000
			rng := rand.New(rand.NewSource(42))
			keys := make([][]byte, n)
			vals := make([][]byte, n)
			for i := 0; i < n; i++ {
				keys[i] = []byte(fmt.Sprintf("key%08d", rng.Intn(1000000)))
				vals[i] = []byte(fmt.Sprintf("value-%d-%d", i, rng.Int63()))
				if err := db.Put(keys[i], vals[i]); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			// Later writes of the same key win; build the expected map.
			want := map[string][]byte{}
			for i := 0; i < n; i++ {
				want[string(keys[i])] = vals[i]
			}
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			for k, v := range want {
				got, ok, err := db.Get([]byte(k), nil)
				if err != nil {
					t.Fatalf("get %q: %v", k, err)
				}
				if !ok {
					t.Fatalf("get %q: missing", k)
				}
				if !bytes.Equal(got, v) {
					t.Fatalf("get %q: got %q want %q", k, got, v)
				}
			}
			// Absent key.
			if _, ok, _ := db.Get([]byte("nonexistent"), nil); ok {
				t.Fatal("found nonexistent key")
			}
		})
	}
}

func TestIterateMatchesModel(t *testing.T) {
	for _, p := range []Preset{PresetPebblesDB, PresetHyperLevelDB} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			db, err := Open("db", testOptions(p))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			rng := rand.New(rand.NewSource(7))
			model := map[string]string{}
			for i := 0; i < 8000; i++ {
				k := fmt.Sprintf("k%06d", rng.Intn(3000))
				switch rng.Intn(3) {
				case 0, 1:
					v := fmt.Sprintf("v%d", i)
					model[k] = v
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
				case 2:
					delete(model, k)
					if err := db.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}

			it, err := db.NewIter(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			var gotKeys []string
			for it.First(); it.Valid(); it.Next() {
				k := string(it.Key())
				gotKeys = append(gotKeys, k)
				if want, ok := model[k]; !ok {
					t.Fatalf("iterator yielded deleted/absent key %q", k)
				} else if want != string(it.Value()) {
					t.Fatalf("key %q: got %q want %q", k, it.Value(), want)
				}
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}
			if len(gotKeys) != len(model) {
				t.Fatalf("iterator yielded %d keys, model has %d", len(gotKeys), len(model))
			}
			for i := 1; i < len(gotKeys); i++ {
				if gotKeys[i-1] >= gotKeys[i] {
					t.Fatalf("iterator out of order: %q then %q", gotKeys[i-1], gotKeys[i])
				}
			}
		})
	}
}

func TestReopenRecoversData(t *testing.T) {
	for _, p := range []Preset{PresetPebblesDB, PresetLevelDB} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			fs := vfs.NewMem()
			opts := testOptions(p)
			opts.WithFS(fs)

			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("key%05d", i)
				if err := db.Put([]byte(k), []byte("val"+k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			opts2 := testOptions(p)
			opts2.WithFS(fs)
			db2, err := Open("db", opts2)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("key%05d", i)
				v, ok, err := db2.Get([]byte(k), nil)
				if err != nil || !ok {
					t.Fatalf("get %q after reopen: ok=%v err=%v", k, ok, err)
				}
				if string(v) != "val"+k {
					t.Fatalf("get %q: got %q", k, v)
				}
			}
		})
	}
}

// TestCommitLargerThanMemtable: a commit that no memtable has room for is
// admitted by an empty one. Before, makeRoomForWrite compared the size of
// what was coming with MemtableSize, so a 256 KiB value against a 64 KiB
// memtable rotated an empty memtable, waited for its empty flush and rotated
// again, for ever, a new WAL file a turn. Both layouts, a single Put and a
// multi-op Apply, on a memtable that already holds something; the values
// are read back from the reopened store.
func TestCommitLargerThanMemtable(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 16<<10) // 256 KiB
	for _, p := range []Preset{PresetPebblesDB, PresetLevelDB} {
		for _, via := range []string{"Put", "Apply"} {
			t.Run(p.String()+"/"+via, func(t *testing.T) {
				fs := vfs.NewMem()
				opts := testOptions(p) // MemtableSize 64 KiB
				opts.WithFS(fs)
				db, err := Open("db", opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Put([]byte("before"), []byte("small")); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					if via == "Put" {
						done <- db.Put([]byte("big-0"), big)
						return
					}
					b := db.NewBatch()
					b.Set([]byte("big-0"), big)
					b.Delete([]byte("before"))
					b.Set([]byte("big-1"), big[:100<<10])
					done <- db.Apply(b, nil)
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(20 * time.Second):
					t.Fatal("the commit is still waiting for room: the memtable rotates for a batch that fits none")
				}
				if err := db.Put([]byte("after"), []byte("small")); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				db, err = Open("db", opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				want := map[string][]byte{"big-0": big, "after": []byte("small"), "before": []byte("small")}
				if via == "Apply" {
					want["big-1"], want["before"] = big[:100<<10], nil
				}
				for k, w := range want {
					v, ok, err := db.Get([]byte(k), nil)
					if err != nil || ok != (w != nil) || !bytes.Equal(v, w) {
						t.Fatalf("Get(%s) after reopen: %d bytes, found=%v, err=%v; want %d bytes", k, len(v), ok, err, len(w))
					}
				}
			})
		}
	}
}

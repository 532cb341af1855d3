package pebblesdb

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pebblesdb/internal/vfs"
)

// storeDigests are the sha256 of everything but the logs that
// identityStream leaves on disk, per layout: every sstable and the manifest,
// name by name and byte by byte. They were taken on the build before the
// memtable moved into an arena, filters were built from hashes, the table
// writer kept its scratch from table to table and FLSM versions shared
// their untouched guards (PR 20), and must not move for a change that
// claims to write the same bytes: the memtable's charge decides where a
// flush cuts, its iteration order what a table holds, the writer every byte
// of a table, and version.apply the order of a guard's tables and so which
// of them a compaction takes. A deliberate format or policy change takes
// new digests; t.Log prints them.
var storeDigests = map[Engine]string{
	EngineFLSM:    "be28d08a2872dff62227730148a348521d1466b49648447fd2922d3613296906",
	EngineLeveled: "a7fca15109bac1b21f0f3f2ee947c05a4e204c5261717124d9fb602c2a4cb6fd",
}

// identityStream runs one seeded single-writer op stream: puts over a key
// space it overwrites several times, deletes, range deletes and multi-op
// batches, with a Flush and WaitIdle every 1500 ops. No memtable fills
// between two of those and one compaction worker runs, so the flushes and
// compactions, and the file numbers they draw, come in one order.
func identityStream(t *testing.T, engine Engine) (fs *vfs.MemFS, dir string) {
	t.Helper()
	fs = vfs.NewMem()
	o := PresetPebblesDB.Options()
	o.Engine = engine
	o.WithFS(fs)
	o.MemtableSize = 1 << 20
	o.LevelBaseBytes = 256 << 10
	o.TargetFileSize = 64 << 10
	o.TopLevelBits = 10
	o.BitDecrement = 1
	o.MaxCompactionConcurrency = 1
	o.SeekCompactionThreshold = -1
	o.PrefixBloomLength = 6
	db, err := Open("identity", o)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	key := func() []byte { return []byte(fmt.Sprintf("key%07d", rng.Intn(30000))) }
	value := func() []byte {
		v := make([]byte, 20+rng.Intn(200))
		rng.Read(v[:len(v)/2])
		copy(v[len(v)/2:], v)
		return v
	}
	for op := 1; op <= 60000; op++ {
		var err error
		switch r := rng.Intn(100); {
		case r < 80:
			err = db.Put(key(), value())
		case r < 90:
			err = db.Delete(key())
		case r < 91:
			lo := rng.Intn(30000)
			err = db.DeleteRange([]byte(fmt.Sprintf("key%07d", lo)), []byte(fmt.Sprintf("key%07d", lo+1+rng.Intn(50))))
		default:
			b := db.NewBatch()
			for i := rng.Intn(6); i >= 0; i-- {
				if rng.Intn(4) == 0 {
					b.Delete(key())
				} else {
					b.Set(key(), value())
				}
			}
			err = db.Apply(b, nil)
		}
		if err == nil && op%1500 == 0 {
			if err = db.Flush(); err == nil {
				err = db.WaitIdle()
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	m := db.Metrics()
	if m.Flushes != 40 || m.Tree.Compactions < 20 {
		t.Fatalf("%d flushes, %d compactions: the stream was meant to flush only where it says so, and to compact", m.Flushes, m.Tree.Compactions)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return fs, "identity"
}

// TestSameBytesOnDisk holds a seeded op stream to the store it left before
// PR 20, sstables and manifest (see storeDigests).
func TestSameBytesOnDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for layout, engine := range map[string]Engine{"flsm": EngineFLSM, "leveled": EngineLeveled} {
		t.Run(layout, func(t *testing.T) {
			fs, dir := identityStream(t, engine)
			names, err := fs.List(dir)
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(names)
			h := sha256.New()
			files := 0
			for _, name := range names {
				if strings.HasSuffix(name, ".log") {
					continue
				}
				size, err := fs.Stat(dir + "/" + name)
				if err != nil {
					t.Fatal(err)
				}
				f, err := fs.Open(dir + "/" + name)
				if err != nil {
					t.Fatal(err)
				}
				data := make([]byte, size)
				if n, err := f.ReadAt(data, 0); n != len(data) {
					t.Fatalf("%s: read %d of %d bytes: %v", name, n, size, err)
				}
				f.Close()
				fmt.Fprintf(h, "%s %d\n", name, size)
				h.Write(data)
				files++
			}
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%d files, digest %s", files, got)
			if got != storeDigests[engine] {
				t.Errorf("the store's bytes changed: digest %s, want %s", got, storeDigests[engine])
			}
		})
	}
}

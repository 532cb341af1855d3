package pebblesdb

import (
	"fmt"
	"math/rand"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/vfs"
)

// TestHeldIteratorKeepsOnlyItsTables: an iterator held across a write load
// keeps on disk the tables of its own view and no others. At rest after
// each stretch of puts, the tables on disk are at most the live ones plus
// those its view lists, and the ones compacted out from under it count as
// zombies; the stale logs and manifests go as they would without it. Once
// it is closed and one more flush has run, the disk holds the live tables
// alone and no zombie is left. Each time the disk is also checked against
// the views held (CheckInvariants).
func TestHeldIteratorKeepsOnlyItsTables(t *testing.T) {
	for _, p := range []Preset{PresetPebblesDB, PresetHyperLevelDB} {
		t.Run(p.String(), func(t *testing.T) {
			fs := vfs.NewMem()
			o := testOptions(p)
			o.WithFS(fs)
			db, err := Open("db", o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(1))
			put := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					k := fmt.Sprintf("key%06d", rng.Intn(20000))
					if err := db.Put([]byte(k), []byte(fmt.Sprintf("value-%d", i))); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.WaitIdle(); err != nil {
					t.Fatal(err)
				}
			}
			count := func(ft base.FileType) int {
				t.Helper()
				names, err := fs.List("db")
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for _, name := range names {
					if got, _, ok := base.ParseFilename(name); ok && got == ft {
						n++
					}
				}
				return n
			}
			onDisk := func() int { return count(base.FileTypeTable) }
			live := func(m Metrics) (n int) {
				for _, c := range m.Tree.LevelFiles {
					n += c
				}
				return n
			}

			put(10000)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			view := live(db.Metrics())
			it, err := db.NewIter(nil)
			if err != nil {
				t.Fatal(err)
			}
			var zombies int64
			for round := 0; round < 4; round++ {
				put(20000)
				m := db.Metrics()
				if disk := onDisk(); disk > live(m)+view {
					it.Close()
					t.Fatalf("after %d puts with an iterator held: %d tables on disk, %d live, %d in the iterator's view", 20000*(round+1), disk, live(m), view)
				}
				if err := db.CheckInvariants(); err != nil {
					it.Close()
					t.Fatal(err)
				}
				// Each stretch writes some thirty logs; the last cleanup may
				// still be listing when WaitIdle returns.
				if logs, manifests := count(base.FileTypeLog), count(base.FileTypeManifest); logs > 3 || manifests > 2 {
					it.Close()
					t.Fatalf("after %d puts with an iterator held: %d logs and %d manifests on disk", 20000*(round+1), logs, manifests)
				}
				zombies = max(zombies, m.Tree.ZombieTables)
				if m.Tree.ZombieTables > int64(view) || m.Tree.ZombieBytes <= 0 != (m.Tree.ZombieTables == 0) {
					it.Close()
					t.Fatalf("%d zombie tables of %d bytes, but the iterator's view lists %d tables", m.Tree.ZombieTables, m.Tree.ZombieBytes, view)
				}
			}
			if zombies == 0 {
				t.Errorf("no table of the iterator's view was compacted out from under it: the test holds nothing")
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			put(100)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			m := db.Metrics()
			if disk := onDisk(); disk != live(m) || m.Tree.ZombieTables != 0 || m.Tree.ZombieBytes != 0 {
				t.Fatalf("after the iterator's Close and a flush: %d tables on disk, %d live, %d zombies of %d bytes", disk, live(m), m.Tree.ZombieTables, m.Tree.ZombieBytes)
			}
			if err := db.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

package pebblesdb

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDeleteRangeReclaimsSpace follows the retention pattern (time-series
// retention, dropping a tenant): sequential windows of keys are written,
// and once three are live the oldest is dropped with one DeleteRange. After
// CompactAll every dropped key must read not-found, and the live tables
// must hold about the retained windows and no more: the covered points are
// gone from disk, not only hidden from reads.
func TestDeleteRangeReclaimsSpace(t *testing.T) {
	const (
		window  = 2000
		windows = 8
		retain  = 3
		valSize = 100
	)
	key := func(i int) []byte { return []byte(fmt.Sprintf("%016d", i)) }
	for _, p := range []Preset{PresetPebblesDB, PresetHyperLevelDB} {
		t.Run(p.String(), func(t *testing.T) {
			db, err := Open("retention", testOptions(p))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(1))
			val := make([]byte, valSize) // random, so the codec shrinks nothing
			for w := 0; w < windows; w++ {
				for i := w * window; i < (w+1)*window; i++ {
					rng.Read(val)
					if err := db.Put(key(i), val); err != nil {
						t.Fatal(err)
					}
				}
				if w >= retain {
					drop := w - retain
					if err := db.DeleteRange(key(drop*window), key((drop+1)*window)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}

			dropped := (windows - retain) * window
			for i := 0; i < dropped; i++ {
				if _, ok, err := db.Get(key(i), nil); err != nil || ok {
					t.Fatalf("dropped key %s: found=%v err=%v", key(i), ok, err)
				}
			}
			for i := dropped; i < windows*window; i += 97 {
				if _, ok, err := db.Get(key(i), nil); err != nil || !ok {
					t.Fatalf("retained key %s: found=%v err=%v", key(i), ok, err)
				}
			}

			// Each retained entry costs its user bytes plus the internal
			// key's 8-byte trailer, block and index overhead and its share
			// of the bloom filter, less what shared key prefixes save: 1.00x
			// on leveled, 1.11x on FLSM, whose last level splits into many
			// small tables. One dropped window left on disk adds 1/3 of the
			// retained bytes, all five 5/3.
			retained := int64(retain * window * (16 + valSize))
			var live int64
			for _, b := range db.Metrics().Tree.LevelBytes {
				live += b
			}
			if bound := retained * 5 / 4; live > bound {
				t.Fatalf("live tables hold %d bytes after CompactAll, over %d (1.25x the %d user bytes of the %d retained windows)",
					live, bound, retained, retain)
			}
			t.Logf("live %d bytes for %d retained user bytes (%.2fx)", live, retained, float64(live)/float64(retained))
		})
	}
}

package pebblesdb

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPrefixIterSkipsTables: three level-0 tables each hold every third
// prefix of "0000".."0029", so each table's key range spans the prefixes
// the other two hold. A Prefix iterator of the store's PrefixBloomLength
// must return exactly what the same range as bounds returns, and the prefix
// filters must rule tables out before any block is read.
func TestPrefixIterSkipsTables(t *testing.T) {
	const (
		prefixes  = 30
		rounds    = 3 // below the level-0 trigger, so no compaction mixes the rounds
		perPrefix = 40
	)
	for _, p := range []Preset{PresetPebblesDB, PresetHyperLevelDB} {
		t.Run(p.String(), func(t *testing.T) {
			o := testOptions(p)
			o.PrefixBloomLength = 4
			db, err := Open("prefix", o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(1))
			val := make([]byte, 64)
			for r := 0; r < rounds; r++ {
				for pfx := r; pfx < prefixes; pfx += rounds {
					for i := 0; i < perPrefix; i++ {
						rng.Read(val)
						if err := db.Put([]byte(fmt.Sprintf("%04d/%04d", pfx, i)), val); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if n := db.Metrics().Tree.LevelFiles[0]; n != rounds {
				t.Fatalf("level 0 holds %d tables, want one per round (%d)", n, rounds)
			}

			scan := func(opts *IterOptions) []string {
				t.Helper()
				it, err := db.NewIter(opts)
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for it.First(); it.Valid(); it.Next() {
					out = append(out, string(it.Key())+"="+string(it.Value()))
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				return out
			}
			before := db.Metrics().IterPrefixSkips
			for pfx := 0; pfx < prefixes; pfx++ {
				lo, hi := fmt.Sprintf("%04d", pfx), fmt.Sprintf("%04d", pfx+1)
				got := scan(&IterOptions{Prefix: []byte(lo)})
				want := scan(&IterOptions{LowerBound: []byte(lo), UpperBound: []byte(hi)})
				if len(want) != perPrefix {
					t.Fatalf("prefix %s: bounded scan read %d keys, want %d", lo, len(want), perPrefix)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("prefix %s: prefix scan read %d keys, bounded scan %d; they differ", lo, len(got), len(want))
				}
			}
			if skips := db.Metrics().IterPrefixSkips - before; skips == 0 {
				t.Fatalf("IterPrefixSkips did not move over %d prefix scans of %d overlapping tables", prefixes, rounds)
			}
		})
	}
}

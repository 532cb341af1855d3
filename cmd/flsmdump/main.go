// Command flsmdump prints the FLSM layout of a store — the guards of each
// level and the sstables attached to them, the on-storage picture of the
// paper's Figure 3.1. With -demo it builds a small in-memory store first,
// so the guard structure can be inspected without any setup.
//
// Example:
//
//	flsmdump -demo
//	flsmdump -dir=/path/to/store
//
// With -check it verifies the store's structural invariants instead
// (DB.CheckInvariants) and prints ok, or the broken invariant and exits 1.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"pebblesdb"
	"pebblesdb/internal/harness"
)

var (
	dir  = flag.String("dir", "", "store directory to dump (OS filesystem)")
	demo = flag.Bool("demo", false, "build a demonstration in-memory store and dump it")
	keys = flag.Int("keys", 200_000, "demo: number of keys to insert")
	chk  = flag.Bool("check", false, "check the store's structural invariants instead of dumping it")
)

func main() {
	flag.Parse()
	switch {
	case *demo:
		opts := pebblesdb.PresetPebblesDB.Options()
		harness.Scale(opts, 64)
		db, err := harness.Open(harness.Spec{Name: "demo", Options: opts})
		if err != nil {
			fmt.Fprintf(os.Stderr, "open: %v\n", err)
			os.Exit(1)
		}
		defer db.Close()
		rng := rand.New(rand.NewSource(42))
		val := make([]byte, 256)
		key := make([]byte, 0, 16)
		for i := 0; i < *keys; i++ {
			rng.Read(val)
			key = harness.KeyAt(key, uint64(rng.Intn(*keys*4)))
			if err := db.Put(key, val); err != nil {
				fmt.Fprintf(os.Stderr, "put: %v\n", err)
				os.Exit(1)
			}
		}
		if err := db.WaitIdle(); err != nil {
			fmt.Fprintf(os.Stderr, "compaction: %v\n", err)
			os.Exit(1)
		}
		show(db)
	case *dir != "":
		db, err := pebblesdb.Open(*dir, pebblesdb.PresetPebblesDB.Options())
		if err != nil {
			fmt.Fprintf(os.Stderr, "open %s: %v\n", *dir, err)
			os.Exit(1)
		}
		defer db.Close()
		show(db)
	default:
		fmt.Fprintln(os.Stderr, "usage: flsmdump [-check] -demo | -dir=<store>")
		os.Exit(2)
	}
}

// show dumps db, or with -check verifies it.
func show(db *pebblesdb.DB) {
	if !*chk {
		db.Dump(os.Stdout)
		return
	}
	if err := db.CheckInvariants(); err != nil {
		fmt.Println(err)
		db.Close()
		os.Exit(1)
	}
	fmt.Println("ok")
}

// Package harness drives the paper's experiments: db_bench-style
// micro-workloads (§5.2), store presets with per-run in-memory filesystems,
// IO/write-amplification accounting, and paper-style relative reporting.
// Every table and figure in EXPERIMENTS.md is regenerated through this
// package by cmd/experiments; the command-line tools and the root package's
// benchmarks share its presets, keys and values.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pebblesdb"
	"pebblesdb/internal/vfs"
)

// Spec names a store configuration under test.
type Spec struct {
	// Name is the display name used in tables ("PebblesDB", ...).
	Name string
	// Options is the full configuration; each Open gets a fresh private
	// in-memory filesystem unless one is already set.
	Options *pebblesdb.Options
}

// DefaultStores returns the four stores the paper compares (§5.1), in the
// order its figures list them.
func DefaultStores() []Spec {
	return []Spec{
		{Name: "PebblesDB", Options: pebblesdb.PresetPebblesDB.Options()},
		{Name: "HyperLevelDB", Options: pebblesdb.PresetHyperLevelDB.Options()},
		{Name: "LevelDB", Options: pebblesdb.PresetLevelDB.Options()},
		{Name: "RocksDB", Options: pebblesdb.PresetRocksDB.Options()},
	}
}

// PresetByName resolves a -store flag value (case-insensitive) to a preset.
func PresetByName(name string) (pebblesdb.Preset, bool) {
	switch strings.ToLower(name) {
	case "pebblesdb":
		return pebblesdb.PresetPebblesDB, true
	case "hyperleveldb":
		return pebblesdb.PresetHyperLevelDB, true
	case "leveldb":
		return pebblesdb.PresetLevelDB, true
	case "rocksdb":
		return pebblesdb.PresetRocksDB, true
	case "pebblesdb1", "pebblesdb-1":
		return pebblesdb.PresetPebblesDB1, true
	}
	return 0, false
}

// ParseBytes parses a human byte size like "512MiB", "4gb" or "1048576"
// (suffixes are powers of two either way). CLI flags in cmd/ share it.
func ParseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	lower := strings.ToLower(s)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(lower, u.suffix) {
			mult = u.mult
			s = s[:len(s)-len(u.suffix)]
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// Scale shrinks the stores' size parameters so that scaled-down datasets
// exercise the same number of levels and compactions the paper's full-size
// runs do. factor=1 keeps the paper's parameters. Ratios between the
// parameters (and therefore between presets) are preserved.
func Scale(o *pebblesdb.Options, factor int) *pebblesdb.Options {
	if factor <= 1 {
		return o
	}
	div := func(v int) int {
		if v/factor < 1 {
			return 1
		}
		return v / factor
	}
	o.MemtableSize = div(o.MemtableSize)
	o.LevelBaseBytes = int64(div(int(o.LevelBaseBytes)))
	o.TargetFileSize = int64(div(int(o.TargetFileSize)))
	o.BlockCacheSize = int64(div(int(o.BlockCacheSize)))
	// Guard probability tracks dataset size (§4.4: top_level_bits is set
	// for the expected key count). Halving the dataset 2^k times calls
	// for k fewer required bits so guard counts stay proportional.
	if o.TopLevelBits > 0 {
		bits := 0
		for f := factor; f > 1; f /= 2 {
			bits++
		}
		o.TopLevelBits -= bits
		// Keep the last level's guard probability at or below 1/64: finer
		// guards degenerate into per-handful-of-keys fragments and
		// metadata dominates.
		floor := 6 + (o.NumLevels-2)*o.BitDecrement
		if o.TopLevelBits < floor {
			o.TopLevelBits = floor
		}
	}
	return o
}

// Open opens a fresh store for the spec on its own in-memory filesystem.
func Open(spec Spec) (*pebblesdb.DB, error) {
	o := *spec.Options // copy so reuse across opens stays clean
	o.InMemory = false
	o.WithFS(vfs.NewMem())
	return pebblesdb.Open("bench", &o)
}

// Result is one workload measurement.
type Result struct {
	Store    string
	Workload string
	// KOpsPerSec is throughput in thousands of operations per second (the
	// unit the paper reports).
	KOpsPerSec float64
	// WriteGB is storage write IO in gigabytes.
	WriteGB float64
	// WriteAmp is write IO over user bytes (Fig 1.1).
	WriteAmp float64
}

// Measure runs fn against the DB and captures throughput plus the IO
// delta.
func Measure(db *pebblesdb.DB, store, workload string, ops int64, fn func() error) (Result, error) {
	before := db.Metrics()
	start := time.Now()
	err := fn()
	dur := time.Since(start)
	after := db.Metrics()
	io := after.IO.Sub(before.IO)
	res := Result{
		Store:      store,
		Workload:   workload,
		KOpsPerSec: float64(ops) / dur.Seconds() / 1000,
		WriteGB:    float64(io.TotalWritten()) / (1 << 30),
	}
	if ub := after.UserBytesWritten - before.UserBytesWritten; ub > 0 {
		res.WriteAmp = float64(io.TotalWritten()) / float64(ub)
	}
	return res, err
}

// KeyAt renders the fixed-width 16-byte key for index i (the paper uses
// 16-byte keys throughout §5.2).
func KeyAt(dst []byte, i uint64) []byte {
	dst = dst[:0]
	var buf [16]byte
	for p := len(buf) - 1; p >= 0; p-- {
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, buf[:]...)
}

// CompressibleFraction is the default fraction of each benchmark value that
// is unique random data; the rest repeats it. 0.5 matches LevelDB
// db_bench's compression_ratio default, so fill workloads exercise the
// block codec with a realistic ~2x-compressible payload.
const CompressibleFraction = 0.5

// ValueSource produces semi-compressible benchmark values, mirroring
// LevelDB db_bench's RandomGenerator: a ~1MB pool assembled from 100-byte
// pieces that are `fraction` random data repeated to full size, served as
// a sliding window so successive values differ.
type ValueSource struct {
	pool []byte
	size int
	pos  int
}

// NewValueSource returns a generator of size-byte values of which roughly
// fraction is incompressible.
func NewValueSource(size int, fraction float64, seed int64) *ValueSource {
	rng := rand.New(rand.NewSource(seed))
	if size < 1 {
		size = 1
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	raw := int(100 * fraction)
	if raw < 1 {
		raw = 1
	}
	// The pool must hold at least one full value, so oversized values
	// (> 1MiB) still get genuine semi-compressible content.
	target := 1 << 20
	if size > target {
		target = size
	}
	pool := make([]byte, 0, target+size+100)
	frag := make([]byte, raw)
	for len(pool) < target {
		for i := range frag {
			frag[i] = byte(' ' + rng.Intn(95))
		}
		piece := len(pool) + 100
		for len(pool) < piece {
			pool = append(pool, frag...)
		}
	}
	// Tail pad so every window of size bytes stays in range.
	pool = append(pool, pool[:size]...)
	return &ValueSource{pool: pool, size: size}
}

// Next returns the next value. The returned slice aliases the pool: copy it
// if it must outlive the following call (db.Put copies internally).
func (v *ValueSource) Next() []byte {
	if v.pos+v.size > len(v.pool) {
		v.pos = 0
	}
	b := v.pool[v.pos : v.pos+v.size]
	v.pos += v.size
	return b
}

// FillSeq inserts exactly the keys [0, n), each once, in ascending order.
func FillSeq(db *pebblesdb.DB, n int, valueSize int, seed int64) error {
	vals := NewValueSource(valueSize, CompressibleFraction, seed)
	key := make([]byte, 0, 16)
	for i := 0; i < n; i++ {
		key = KeyAt(key, uint64(i))
		if err := db.Put(key, vals.Next()); err != nil {
			return err
		}
	}
	return nil
}

// FillRandom inserts n keys drawn uniformly from keySpace.
func FillRandom(db *pebblesdb.DB, n, keySpace, valueSize int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	vals := NewValueSource(valueSize, CompressibleFraction, seed)
	key := make([]byte, 0, 16)
	for i := 0; i < n; i++ {
		key = KeyAt(key, uint64(rng.Intn(keySpace)))
		if err := db.Put(key, vals.Next()); err != nil {
			return err
		}
	}
	return nil
}

// FillRange inserts every key in [lo, hi) once.
func FillRange(db *pebblesdb.DB, lo, hi uint64, valueSize int, seed int64) error {
	vals := NewValueSource(valueSize, CompressibleFraction, seed)
	key := make([]byte, 0, 16)
	for i := lo; i < hi; i++ {
		key = KeyAt(key, i)
		if err := db.Put(key, vals.Next()); err != nil {
			return err
		}
	}
	return nil
}

// ReadRange performs n gets uniformly over [lo, hi); returns hits.
func ReadRange(db *pebblesdb.DB, lo, hi uint64, n int, seed int64) (hits int, err error) {
	rng := rand.New(rand.NewSource(seed))
	key := make([]byte, 0, 16)
	span := int64(hi - lo)
	for i := 0; i < n; i++ {
		key = KeyAt(key, lo+uint64(rng.Int63n(span)))
		_, ok, gerr := db.Get(key, nil)
		if gerr != nil {
			return hits, gerr
		}
		if ok {
			hits++
		}
	}
	return hits, nil
}

// DeleteRange deletes every key in [lo, hi) with one range tombstone.
func DeleteRange(db *pebblesdb.DB, lo, hi uint64) error {
	if lo >= hi {
		return nil
	}
	return db.DeleteRange(KeyAt(nil, lo), KeyAt(nil, hi))
}

// ReadRandom performs n gets over keySpace; returns the hit count. The
// loop reuses one destination buffer through DB.GetTo, so on a warm cache
// it runs allocation-free end to end.
func ReadRandom(db *pebblesdb.DB, n, keySpace int, seed int64) (hits int, err error) {
	rng := rand.New(rand.NewSource(seed))
	key := make([]byte, 0, 16)
	buf := make([]byte, 0, 4096)
	for i := 0; i < n; i++ {
		key = KeyAt(key, uint64(rng.Intn(keySpace)))
		v, ok, gerr := db.GetTo(key, buf, nil)
		if gerr != nil {
			return hits, gerr
		}
		if ok {
			hits++
			buf = v[:0]
		}
	}
	return hits, nil
}

// SeekRandom performs n seeks, each followed by nexts Next calls (the
// paper's range query: a seek() then next()s, §5.2). One iterator serves
// every seek — the warm scan path: pooled table cursors and retained seek
// buffers make the steady-state SeekGE+Next loop allocation-free. The view
// is pinned at iterator creation, which is what a repeated-range-query
// benchmark wants anyway.
func SeekRandom(db *pebblesdb.DB, n, keySpace, nexts int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	key := make([]byte, 0, 16)
	it, err := db.NewIter(nil)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		key = KeyAt(key, uint64(rng.Intn(keySpace)))
		it.SeekGE(key)
		for j := 0; j < nexts && it.Valid(); j++ {
			it.Next()
		}
		if err := it.Error(); err != nil {
			it.Close()
			return err
		}
	}
	return it.Close()
}

// DeleteRandom deletes n keys drawn uniformly from keySpace.
func DeleteRandom(db *pebblesdb.DB, n, keySpace int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	key := make([]byte, 0, 16)
	for i := 0; i < n; i++ {
		key = KeyAt(key, uint64(rng.Intn(keySpace)))
		if err := db.Delete(key); err != nil {
			return err
		}
	}
	return nil
}

// Concurrent runs worker(threadID) on threads goroutines and returns the
// first error (the paper's multi-threaded benchmarks, Fig 5.1c).
func Concurrent(threads int, worker func(th int) error) error {
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			if err := worker(th); err != nil {
				errCh <- err
			}
		}(th)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// Age churns the store per the paper's key-value-store aging procedure
// (Fig 5.2a): concurrent inserts, deletes and updates in random order.
func Age(db *pebblesdb.DB, inserts, deletes, updates, keySpace, valueSize int, seed int64) error {
	return Concurrent(4, func(th int) error {
		rng := rand.New(rand.NewSource(seed + int64(th)))
		vals := NewValueSource(valueSize, CompressibleFraction, seed+int64(th))
		key := make([]byte, 0, 16)
		for i := 0; i < inserts/4; i++ {
			key = KeyAt(key, uint64(rng.Intn(keySpace)))
			if err := db.Put(key, vals.Next()); err != nil {
				return err
			}
		}
		for i := 0; i < deletes/4; i++ {
			key = KeyAt(key, uint64(rng.Intn(keySpace)))
			if err := db.Delete(key); err != nil {
				return err
			}
		}
		for i := 0; i < updates/4; i++ {
			key = KeyAt(key, uint64(rng.Intn(keySpace)))
			if err := db.Put(key, vals.Next()); err != nil {
				return err
			}
		}
		return nil
	})
}

// SizeDistribution summarizes sstable sizes in MB (Table 5.1).
type SizeDistribution struct {
	Count            int
	MeanMB, MedianMB float64
	P90MB, P95MB     float64
}

// SSTableSizes computes the live sstable size distribution.
func SSTableSizes(db *pebblesdb.DB) SizeDistribution {
	sizes := db.Metrics().Tree.TableFileSizes
	if len(sizes) == 0 {
		return SizeDistribution{}
	}
	sorted := append([]uint64(nil), sizes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum uint64
	for _, s := range sorted {
		sum += s
	}
	pct := func(p float64) float64 {
		idx := int(p * float64(len(sorted)-1))
		return float64(sorted[idx]) / (1 << 20)
	}
	return SizeDistribution{
		Count:    len(sorted),
		MeanMB:   float64(sum) / float64(len(sorted)) / (1 << 20),
		MedianMB: pct(0.5),
		P90MB:    pct(0.9),
		P95MB:    pct(0.95),
	}
}

// Table renders results grouped by workload with values relative to a
// baseline store, matching the paper's figure style ("values are shown
// relative to HyperLevelDB").
func Table(w io.Writer, results []Result, baseline string) {
	byWorkload := map[string][]Result{}
	var order []string
	for _, r := range results {
		if len(byWorkload[r.Workload]) == 0 {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, wl := range order {
		rs := byWorkload[wl]
		var base float64
		for _, r := range rs {
			if r.Store == baseline {
				base = r.KOpsPerSec
			}
		}
		fmt.Fprintf(w, "%s (baseline %s = %.1f KOps/s):\n", wl, baseline, base)
		for _, r := range rs {
			rel := 0.0
			if base > 0 {
				rel = r.KOpsPerSec / base
			}
			fmt.Fprintf(w, "  %-14s %10.1f KOps/s  %5.2fx  writeIO %7.3f GB  writeAmp %6.2f\n",
				r.Store, r.KOpsPerSec, rel, r.WriteGB, r.WriteAmp)
		}
	}
}

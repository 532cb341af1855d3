package main

// Coupling to the program, part 2 of 2: every internal/* function a driver
// calls is called in this file and nowhere else (counters.go and
// workloads.go use only internal/vfs beside the public API). A driver times
// one layer's public functions directly, on the workload's own entries or
// on tables opened from the idle store's MemFS. These names are a
// compatibility surface:
//
//	base:       MakeInternalKey, MakeSearchKey, InternalCompare, ParseFilename, MaxSeqNum, KindSet
//	batch:      New, (*Batch).Reset/Set/Repr
//	wal:        NewWriter, (*Writer).AddRecord
//	memtable:   New, (*Memtable).Set/GetSearch/NewIter/ApproxSize
//	sstable:    NewWriter, WriterOptions, (*Writer).Add/Finish, Open,
//	            (*Reader).GetScratched/NewIter/NewSequentialIter/Close,
//	            AcquireGetScratch/ReleaseGetScratch, TableIter.Init/SeekGE/First/Next
//	block:      NewBuilder, (*Builder).Add/EstimatedSize/Finish/Reset, NewIter, (*Iter).SeekGE/First/Next
//	bloom:      Build, Filter.MayContain
//	compress:   Encode, Decode, Snappy
//	cache:      New, (*Cache).Get/Set, Key
//	tablecache: New, (*TableCache).Find/Close
//	treebase:   NewSequentialTableIter, NewCompactionIter
//	iterator:   NewMerging, (*Merging).SeekGE/First/Next/Valid/Close
//	guard:      Picker.GuardLevel
//	vfs:        NewMem, (*MemFS).Create/Open/List/Stat

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/batch"
	"pebblesdb/internal/block"
	"pebblesdb/internal/bloom"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/compress"
	"pebblesdb/internal/guard"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/tablecache"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/vfs"
	"pebblesdb/internal/wal"
)

// sink keeps driver results alive so the compiler cannot drop the calls.
var sink int

const (
	driverTableBytes = 256 << 10 // one TargetFileSize of entries
	driverBlockBytes = 4 << 10   // the store's default BlockSize
	memtableEntries  = 3000      // about one 512 KiB memtable
)

// entry is one workload entry in the form the layers below the engine
// take: user key, internal key (seq = position + 1), search key, value.
type entry struct {
	ukey, ikey, search, value []byte
}

// drivers runs every layer driver and returns their metrics by name.
type drivers struct {
	g   *gen
	st  *store
	sb  *spanBuf // nil when the caller wants no spans
	top uint32
	out map[string]float64

	sorted []entry // one table's worth, ascending
	random []entry // one memtable's worth, in seeded random order
	absent []entry // keys fill never wrote
	tables []storeTable
}

type storeTable struct {
	fn   base.FileNum
	size int64
}

func (d *drivers) entry(idx uint32, seq int) entry {
	e := entry{ukey: make([]byte, keyLen), value: make([]byte, valueLen)}
	putKey(e.ukey, idx)
	d.g.putValue(e.value, idx)
	e.ikey = base.MakeInternalKey(nil, e.ukey, base.SeqNum(seq), base.KindSet)
	e.search = base.MakeSearchKey(nil, e.ukey, base.MaxSeqNum)
	return e
}

// time runs fn, which performs n calls of the layer, records it as a span
// under the drivers root, and stores the mean ns per call under name.
func (d *drivers) time(name string, n int, fn func()) {
	t0 := now()
	fn()
	t1 := now()
	if d.sb != nil {
		d.sb.add(d.top, 0, name, t0, t1)
	}
	d.out[name] = float64(t1-t0) / float64(n)
}

// runDrivers times every layer on st once it is idle. tr may be nil.
func runDrivers(st *store, g *gen, tr *tracer) (map[string]float64, error) {
	d := &drivers{g: g, st: st, out: map[string]float64{}}
	t0 := now()
	if tr != nil {
		d.sb = tr.buf(64)
		d.top = d.sb.open(0, 0, spDrivers, t0)
	}
	n := driverTableBytes / (keyLen + base.TrailerLen + valueLen)
	first := uint32(g.cfg.keys / 3)
	for i := 0; i < n; i++ {
		d.sorted = append(d.sorted, d.entry(first+uint32(i), i+1))
	}
	r := newRNG(g.seed, 9)
	for i := 0; i < memtableEntries; i++ {
		d.random = append(d.random, d.entry(uint32(r.intn(uint64(g.cfg.keys))), i+1))
		d.absent = append(d.absent, d.entry(uint32(g.cfg.keys)+uint32(i), i+1))
	}
	// engineAllocs puts to the store and then waits for it to go idle;
	// only after that may the store's tables be listed and opened, so that
	// no compaction deletes one meanwhile.
	for _, f := range []func() error{
		d.engineAllocs, d.listTables, d.batchWAL, d.memtable, d.sstable, d.blockBloomCompress,
		d.cache, d.storeTables, d.guard,
	} {
		if err := f(); err != nil {
			return nil, err
		}
	}
	if d.sb != nil {
		d.sb.close(d.top, now())
	}
	return d.out, nil
}

func (d *drivers) listTables() error {
	names, err := d.st.fs.List(storeDir)
	if err != nil {
		return fmt.Errorf("drivers: list store dir: %w", err)
	}
	for _, name := range names {
		ft, fn, ok := base.ParseFilename(name)
		if !ok || ft != base.FileTypeTable {
			continue
		}
		size, err := d.st.fs.Stat(storeDir + "/" + name)
		if err != nil {
			return fmt.Errorf("drivers: stat %s: %w", name, err)
		}
		d.tables = append(d.tables, storeTable{fn, size})
	}
	if len(d.tables) == 0 {
		return fmt.Errorf("drivers: the store has no sstables")
	}
	sort.Slice(d.tables, func(i, j int) bool { return d.tables[i].size > d.tables[j].size })
	return nil
}

// openStoreTable opens the i-th largest table of the store (wrapping
// around when the store has fewer).
func (d *drivers) openStoreTable(i int, blocks *cache.Cache) (*sstable.Reader, error) {
	t := d.tables[i%len(d.tables)]
	f, err := d.st.fs.Open(storeDir + "/" + base.MakeFilename(base.FileTypeTable, t.fn))
	if err != nil {
		return nil, fmt.Errorf("drivers: open table: %w", err)
	}
	r, err := sstable.Open(f, t.size, t.fn, blocks, nil)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("drivers: open table: %w", err)
	}
	return r, nil
}

func (d *drivers) batchWAL() error {
	const n = 20000
	b := batch.New()
	d.time("batch.encode_ns", n, func() {
		for i := 0; i < n; i++ {
			e := &d.sorted[i%len(d.sorted)]
			b.Reset()
			b.Set(e.ukey, e.value)
			sink += len(b.Repr())
		}
	})
	f, err := vfs.NewMem().Create("driver.log")
	if err != nil {
		return fmt.Errorf("drivers: wal file: %w", err)
	}
	w := wal.NewWriter(f)
	repr := b.Repr()
	d.time("wal.append_ns", n, func() {
		for i := 0; i < n && err == nil; i++ {
			err = w.AddRecord(repr)
		}
	})
	if err != nil {
		return fmt.Errorf("drivers: wal append: %w", err)
	}
	return f.Close()
}

func (d *drivers) memtable() error {
	const reps = 5
	var m *memtable.Memtable
	d.time("memtable.set_ns", reps*len(d.random), func() {
		for r := 0; r < reps; r++ {
			m = memtable.New()
			for i := range d.random {
				e := &d.random[i]
				m.Set(e.ukey, base.SeqNum(i+1), base.KindSet, e.value)
			}
		}
	})
	d.out["memtable.bytes_per_user_byte"] = float64(m.ApproxSize()) / float64(len(d.random)*entryLen)
	d.time("memtable.iter_next_ns", reps*len(d.random), func() {
		for r := 0; r < reps; r++ {
			it := m.NewIter()
			for it.First(); it.Valid(); it.Next() {
				sink += len(it.Key())
			}
			it.Close()
		}
	})
	probe := func(name string, es []entry, want bool) error {
		ok := true
		d.time(name, reps*len(es), func() {
			for r := 0; r < reps; r++ {
				for i := range es {
					_, _, _, found := m.GetSearch(es[i].search)
					ok = ok && found == want
				}
			}
		})
		if !ok {
			return fmt.Errorf("drivers: %s: memtable lookup gave the wrong answer", name)
		}
		return nil
	}
	if err := probe("memtable.get_hit_ns", d.random, true); err != nil {
		return err
	}
	return probe("memtable.get_miss_ns", d.absent, false)
}

// engineAllocs measures allocations per public Put and GetTo once the store
// is idle (reads may have left seek compactions running), and leaves it
// idle. The puts rewrite existing keys with their own values.
func (d *drivers) engineAllocs() error {
	db := d.st.db
	if err := db.WaitIdle(); err != nil {
		return fmt.Errorf("drivers: %w", err)
	}
	buf := make([]byte, 0, valueLen)
	var err error
	i := 0
	d.out["engine.put_allocs"] = testing.AllocsPerRun(500, func() {
		e := &d.random[i%len(d.random)]
		i++
		if e := db.Put(e.ukey, e.value); e != nil {
			err = e
		}
	})
	d.out["engine.get_allocs"] = testing.AllocsPerRun(500, func() {
		e := &d.random[i%len(d.random)]
		i++
		if _, _, e := db.GetTo(e.ukey, buf, nil); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("drivers: engine allocs: %w", err)
	}
	return db.WaitIdle()
}

// buildTable writes d.sorted as one sstable on fs.
func (d *drivers) buildTable(fs *vfs.MemFS, name string) (sstable.TableInfo, error) {
	f, err := fs.Create(name)
	if err != nil {
		return sstable.TableInfo{}, err
	}
	w := sstable.NewWriter(f, sstable.WriterOptions{BloomBitsPerKey: 10, Compression: compress.Snappy})
	for i := range d.sorted {
		if err := w.Add(d.sorted[i].ikey, d.sorted[i].value); err != nil {
			return sstable.TableInfo{}, err
		}
	}
	info, err := w.Finish()
	if err != nil {
		return info, err
	}
	return info, f.Close()
}

func (d *drivers) sstable() error {
	const reps = 5
	fs := vfs.NewMem()
	var info sstable.TableInfo
	var err error
	d.time("sstable.write_ns_per_entry", reps*len(d.sorted), func() {
		for r := 0; r < reps && err == nil; r++ {
			info, err = d.buildTable(fs, "driver.sst")
		}
	})
	if err != nil {
		return fmt.Errorf("drivers: sstable write: %w", err)
	}
	d.out["sstable.bytes_per_entry"] = float64(info.Size) / float64(info.Count)

	open := func(blocks *cache.Cache) (*sstable.Reader, error) {
		f, err := fs.Open("driver.sst")
		if err != nil {
			return nil, err
		}
		return sstable.Open(f, int64(info.Size), 1, blocks, nil)
	}
	const opens = 200
	d.time("sstable.open_us", opens*1000, func() { // ns per 1000th of an open = us per open
		for i := 0; i < opens && err == nil; i++ {
			var r *sstable.Reader
			if r, err = open(nil); err == nil {
				err = r.Close()
			}
		}
	})
	if err != nil {
		return fmt.Errorf("drivers: sstable open: %w", err)
	}

	s := sstable.AcquireGetScratch()
	defer sstable.ReleaseGetScratch(s)
	get := func(r *sstable.Reader, e *entry) {
		_, _, _, found, e2 := r.GetScratched(e.search, s)
		if e2 != nil {
			err = e2
		} else if !found {
			err = fmt.Errorf("key %s not found in the table built from it", e.ukey)
		}
	}
	// Cold: a fresh reader on an empty cache, one key per data block, so
	// every get reads, checksums and decodes a block.
	perBlock := driverBlockBytes / (keyLen + base.TrailerLen + valueLen)
	const coldReps = 20
	cold := 0
	for i := 0; i < len(d.sorted); i += perBlock + 1 {
		cold++
	}
	d.time("sstable.get_cold_ns", coldReps*cold, func() {
		for rep := 0; rep < coldReps && err == nil; rep++ {
			r, e := open(cache.New(64<<20, nil))
			if e != nil {
				err = e
				return
			}
			for i := 0; i < len(d.sorted); i += perBlock + 1 {
				get(r, &d.sorted[i])
			}
			r.Close()
		}
	})
	if err != nil {
		return fmt.Errorf("drivers: sstable cold get: %w", err)
	}
	r, err := open(cache.New(64<<20, nil))
	if err != nil {
		return fmt.Errorf("drivers: sstable open: %w", err)
	}
	defer r.Close()
	for i := range d.sorted {
		get(r, &d.sorted[i])
	}
	d.time("sstable.get_warm_ns", reps*len(d.sorted), func() {
		for rep := 0; rep < reps; rep++ {
			for i := range d.sorted {
				get(r, &d.sorted[(i*7919)%len(d.sorted)])
			}
		}
	})
	if err != nil {
		return fmt.Errorf("drivers: sstable warm get: %w", err)
	}
	var ti sstable.TableIter
	if err := ti.Init(r); err != nil {
		return fmt.Errorf("drivers: table iter: %w", err)
	}
	d.time("sstable.seek_ns", reps*len(d.sorted), func() {
		for rep := 0; rep < reps; rep++ {
			for i := range d.sorted {
				ti.SeekGE(d.sorted[(i*7919)%len(d.sorted)].search)
				sink += len(ti.Key())
			}
		}
	})
	walk := func(name string, it iterator.Iterator) error {
		count := 0
		d.time(name, reps*len(d.sorted), func() {
			for rep := 0; rep < reps; rep++ {
				for it.First(); it.Valid(); it.Next() {
					count++
				}
			}
		})
		if err := it.Error(); err != nil {
			return fmt.Errorf("drivers: %s: %w", name, err)
		}
		if count != reps*len(d.sorted) {
			return fmt.Errorf("drivers: %s: walked %d entries, want %d", name, count, reps*len(d.sorted))
		}
		return nil
	}
	if err := walk("sstable.next_ns", &ti); err != nil {
		return err
	}
	return walk("sstable.seq_next_ns", r.NewSequentialIter())
}

func (d *drivers) blockBloomCompress() error {
	// Data blocks built from the workload's entries, as the sstable writer
	// builds them.
	var blocks [][]byte
	var firstOf []int // index in d.sorted of each block's first entry
	b := block.NewBuilder(16)
	const reps = 5
	d.time("block.build_ns_per_entry", reps*len(d.sorted), func() {
		for rep := 0; rep < reps; rep++ {
			blocks, firstOf = blocks[:0], firstOf[:0]
			b.Reset()
			start := 0
			for i := range d.sorted {
				b.Add(d.sorted[i].ikey, d.sorted[i].value)
				if b.EstimatedSize() >= driverBlockBytes || i == len(d.sorted)-1 {
					blocks = append(blocks, append([]byte(nil), b.Finish()...))
					firstOf = append(firstOf, start)
					start = i + 1
					b.Reset()
				}
			}
		}
	})
	it, err := block.NewIter(blocks[0], base.InternalCompare)
	if err != nil {
		return fmt.Errorf("drivers: block iter: %w", err)
	}
	inBlock := firstOf[1] - firstOf[0]
	const seeks = 20000
	d.time("block.seek_ns", seeks, func() {
		for i := 0; i < seeks; i++ {
			it.SeekGE(d.sorted[(i*31)%inBlock].search)
			sink += len(it.Key())
		}
	})
	d.time("block.next_ns", 200*inBlock, func() {
		for rep := 0; rep < 200; rep++ {
			for it.First(); it.Valid(); it.Next() {
				sink++
			}
		}
	})

	ukeys := make([][]byte, len(d.sorted))
	for i := range d.sorted {
		ukeys[i] = d.sorted[i].ukey
	}
	var filter bloom.Filter
	d.time("bloom.build_ns_per_key", 20*len(ukeys), func() {
		for rep := 0; rep < 20; rep++ {
			filter = bloom.Build(ukeys, 10)
		}
	})
	hits := 0
	d.time("bloom.probe_ns", 10*(len(ukeys)+len(d.absent)), func() {
		for rep := 0; rep < 10; rep++ {
			for _, k := range ukeys {
				if filter.MayContain(k) {
					hits++
				}
			}
			for i := range d.absent {
				if filter.MayContain(d.absent[i].ukey) {
					sink++
				}
			}
		}
	})
	if hits != 10*len(ukeys) {
		return fmt.Errorf("drivers: bloom filter gave a false negative")
	}

	var raw, packed int
	enc := make([][]byte, len(blocks))
	t0 := now()
	for rep := 0; rep < 50; rep++ {
		for i, blk := range blocks {
			enc[i] = compress.Encode(enc[i][:0], blk)
			raw += len(blk)
		}
	}
	t1 := now()
	var dst []byte
	for rep := 0; rep < 50; rep++ {
		for i := range blocks {
			if dst, err = compress.Decode(dst[:0], enc[i]); err != nil {
				return fmt.Errorf("drivers: decode: %w", err)
			}
			packed += len(dst)
		}
	}
	t2 := now()
	if d.sb != nil {
		d.sb.add(d.top, 0, "compress.encode_mb_s", t0, t1)
		d.sb.add(d.top, 0, "compress.decode_mb_s", t1, t2)
	}
	if packed != raw {
		return fmt.Errorf("drivers: decode returned %d bytes, want %d", packed, raw)
	}
	d.out["compress.encode_mb_s"] = float64(raw) / 1e6 / (float64(t1-t0) / 1e9)
	d.out["compress.decode_mb_s"] = float64(raw) / 1e6 / (float64(t2-t1) / 1e9)
	return nil
}

// cache times Get and Set on a block cache held at capacity, from as many
// goroutines as the workloads have clients.
func (d *drivers) cache() error {
	const (
		capacity = 4 << 20
		charge   = driverBlockBytes
		resident = capacity / charge
		n        = 100000 // per goroutine
	)
	c := cache.New(capacity, nil)
	blk := make([]byte, charge)
	for i := 0; i < 2*resident; i++ {
		c.Set(cache.Key{File: 1, Off: uint64(i)}, blk, charge)
	}
	both := func(fn func(g, i int)) {
		var wg sync.WaitGroup
		for g := 0; g < numClients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					fn(g, i)
				}
			}()
		}
		wg.Wait()
	}
	var found [numClients]int
	d.time("cache.get_ns", n, func() {
		both(func(g, i int) {
			if _, ok := c.Get(cache.Key{File: 1, Off: uint64(resident + (i*31+g)%resident)}); ok {
				found[g]++
			}
		})
	})
	d.time("cache.set_ns", n, func() {
		both(func(g, i int) {
			c.Set(cache.Key{File: uint64(2 + g), Off: uint64(i)}, blk, charge)
		})
	})
	for _, f := range found {
		sink += f
	}
	return nil
}

// storeTables runs the drivers that work on the idle store's own tables.
func (d *drivers) storeTables() error {
	tc := tablecache.New(d.st.fs, storeDir, 1000, nil)
	defer tc.Close()
	var err error
	const finds = 20000
	t := d.tables[0]
	d.time("tablecache.find_ns", finds, func() {
		for i := 0; i < finds && err == nil; i++ {
			var r *sstable.Reader
			if r, err = tc.Find(t.fn, uint64(t.size)); err == nil {
				r.Unref()
			}
		}
	})
	if err != nil {
		return fmt.Errorf("drivers: tablecache find: %w", err)
	}

	// Compaction's inner loop: 4 sequential table iterators, merged,
	// through the compaction iterator.
	kids := make([]iterator.Iterator, 4)
	for i := range kids {
		r, err := d.openStoreTable(i, nil)
		if err != nil {
			return err
		}
		kids[i] = treebase.NewSequentialTableIter(r)
	}
	ci := treebase.NewCompactionIter(iterator.NewMerging(base.InternalCompare, kids...), base.MaxSeqNum, false, nil)
	entries := 0
	t0 := now()
	for ci.First(); ci.Valid(); ci.Next() {
		entries++
	}
	t1 := now()
	if err := ci.Error(); err != nil {
		return fmt.Errorf("drivers: merge: %w", err)
	}
	if err := ci.Close(); err != nil {
		return fmt.Errorf("drivers: merge: %w", err)
	}
	if entries == 0 {
		return fmt.Errorf("drivers: merge saw no entries")
	}
	if d.sb != nil {
		d.sb.add(d.top, 0, "treebase.merge_ns_per_entry", t0, t1)
	}
	d.out["treebase.merge_ns_per_entry"] = float64(t1-t0) / float64(entries)

	// A scan's inner loop: 8 table iterators under one merging iterator,
	// blocks cached.
	blocks := cache.New(256<<20, nil)
	kids = make([]iterator.Iterator, 8)
	for i := range kids {
		r, err := d.openStoreTable(i, blocks)
		if err != nil {
			return err
		}
		kids[i] = treebase.NewTableIter(r)
	}
	m := iterator.NewMerging(base.InternalCompare, kids...)
	for m.First(); m.Valid(); m.Next() {
		sink++
	}
	const seeks = 20000
	d.time("iterator.merging_seek_ns", seeks, func() {
		for i := 0; i < seeks; i++ {
			m.SeekGE(d.random[i%len(d.random)].search)
			if m.Valid() {
				sink += len(m.Key())
			}
		}
	})
	const nexts = 100000
	d.time("iterator.merging_next_ns", nexts, func() {
		m.First()
		for i := 0; i < nexts; i++ {
			if !m.Valid() {
				m.First()
			}
			m.Next()
		}
	})
	if err := m.Error(); err != nil {
		return fmt.Errorf("drivers: merging iterator: %w", err)
	}
	return m.Close()
}

func (d *drivers) guard() error {
	// The picker as the store configures it: preset BitDecrement and
	// NumLevels, base.Config's default hash seed.
	p := guard.Picker{TopLevelBits: topLevelBits, BitDecrement: 2, NumLevels: 7, Seed: 0x9747b28c}
	const n = 100000
	d.time("guard.pick_ns", n, func() {
		for i := 0; i < n; i++ {
			if _, ok := p.GuardLevel(d.random[i%len(d.random)].ukey); ok {
				sink++
			}
		}
	})
	return nil
}

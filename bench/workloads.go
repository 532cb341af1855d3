package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"pebblesdb"
	"pebblesdb/internal/vfs"
)

const storeDir = "bench"

// store is one open store on its own in-memory filesystem.
type store struct {
	db *pebblesdb.DB
	fs *vfs.MemFS
}

func openStore(cfg config, leveled bool, fs *vfs.MemFS) (*store, error) {
	db, err := pebblesdb.Open(storeDir, cfg.options(leveled, fs))
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	return &store{db: db, fs: fs}, nil
}

// client is one closed-loop client: it issues its next op when the
// previous one returns. Latency is the time between consecutive returns,
// so it includes the client's own key and value formatting, as a caller
// would see it.
type client struct {
	g   *gen
	db  *pebblesdb.DB
	ops []uint32

	put, get, scan *recorder
	failed         int   // ops whose result was wrong or that returned an error
	err            error // first error returned by the store

	sb   *spanBuf // nil when untraced
	root uint32
}

func (c *client) fail(err error) {
	c.failed++
	if err != nil && c.err == nil {
		c.err = err
	}
}

func (c *client) run(kind opKind) {
	var key [keyLen]byte
	var val [valueLen]byte
	buf := make([]byte, 0, valueLen)
	t0 := now()
	var cs uint32
	if c.sb != nil {
		cs = c.sb.open(c.root, 0, spClient, t0)
	}
	for i, op := range c.ops {
		idx := op &^ putBit
		putKey(key[:], idx)
		var t1 int64
		switch {
		case kind == kindFill || op&putBit != 0:
			c.g.putValue(val[:], idx)
			if err := c.db.Put(key[:], val[:]); err != nil {
				c.fail(err)
			}
			t1 = now()
			c.put.add(t1 - t0)
			if c.sb != nil {
				c.sb.add(cs, uint32(i), spPut, t0, t1)
			}
		case kind == kindScan:
			t1 = c.scanOp(key[:], idx, uint32(i), cs, t0)
			c.scan.add(t1 - t0)
		default:
			v, ok, err := c.db.GetTo(key[:], buf, nil)
			if err != nil || !ok || !c.g.checkValue(idx, v) {
				c.fail(err)
			}
			t1 = now()
			c.get.add(t1 - t0)
			if c.sb != nil {
				c.sb.add(cs, uint32(i), spGet, t0, t1)
			}
		}
		t0 = t1
	}
	if c.sb != nil {
		c.sb.close(cs, t0)
	}
}

// scanOp is NewIter + SeekGE(key of idx) + nexts x Next + Close, checking
// every entry: fill wrote every key, so the seek must land on idx itself
// and each Next on the following index, each with its own value header.
// In a traced run every call into the iterator is a span under the op.
func (c *client) scanOp(key []byte, idx, op, parent uint32, t0 int64) int64 {
	var sp uint32
	if c.sb != nil {
		sp = c.sb.open(parent, op, spScan, t0)
	}
	mark := func(name string, from int64) int64 {
		if c.sb == nil {
			return from
		}
		t := now()
		c.sb.add(sp, op, name, from, t)
		return t
	}
	bad := false
	it, err := c.db.NewIter(nil)
	if err != nil {
		c.fail(err)
		return now()
	}
	t := mark(spIterOpen, t0)
	it.SeekGE(key)
	t = mark(spSeek, t)
	for j := 0; ; j++ {
		want := idx + uint32(j)
		if !it.Valid() {
			bad = bad || int(want) < c.g.cfg.keys
			break
		}
		got, ok := keyIndex(it.Key())
		if !ok || got != want || !c.g.checkValue(got, it.Value()) {
			bad = true
		}
		if j == c.g.cfg.scanNexts {
			break
		}
		it.Next()
		t = mark(spNext, t)
	}
	if err := it.Error(); err != nil {
		bad = true
		c.err = err
	}
	if err := it.Close(); err != nil {
		bad = true
		c.err = err
	}
	t1 := now()
	if c.sb != nil {
		c.sb.add(sp, op, spIterClose, t, t1)
		c.sb.close(sp, t1)
	}
	if bad {
		c.fail(nil)
	}
	return t1
}

// roundStats is what one timed round measured.
type roundStats struct {
	traced  bool
	ops     int
	failed  int
	wallNs  int64 // first op issued to last op returned, plus the drain where the workload has one
	drainNs int64

	all            []uint32 // sorted latencies of every op
	put, get, scan []uint32 // sorted, by kind

	cpuNs     int64
	mallocs   uint64
	heapPeak  float64 // bytes; 0 in a traced run
	heapLive  float64 // bytes after a collection at the end of the round; 0 in a traced run
	diskBytes float64 // mean bytes in the store's MemFS over the round; 0 in a traced run
	before    counters
	after     counters
}

// cpuTime is the process's user+system CPU time.
func cpuTime() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

// sampler watches memory and disk use while a round runs. Every
// spaceSampleEvery it records the bytes in the store's MemFS; every
// heapSampleEach-th time it also reads HeapInuse and tracks the peak of
// HeapInuse minus the MemFS bytes: the program's memory, not the simulated
// disk.
type sampler struct {
	fs       *vfs.MemFS
	heapPeak float64
	disk     []float64 // MemFS bytes, one per tick
	stop     chan struct{}
	done     sync.WaitGroup
}

const (
	spaceSampleEvery = 20 * time.Millisecond
	heapSampleEach   = 5 // every 100 ms
)

func startSampler(fs *vfs.MemFS) *sampler {
	s := &sampler{fs: fs, stop: make(chan struct{}), disk: make([]float64, 0, 4096)}
	s.sample(true)
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(spaceSampleEvery)
		defer t.Stop()
		for i := 1; ; i++ {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample(i%heapSampleEach == 0)
			}
		}
	}()
	return s
}

func (s *sampler) sample(heap bool) {
	disk := float64(s.fs.TotalBytes())
	s.disk = append(s.disk, disk)
	if heap {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.heapPeak = max(s.heapPeak, float64(ms.HeapInuse)-disk)
	}
}

// finish stops the sampler and takes a last sample.
func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
	s.sample(true)
}

// meanDisk is the mean of the samples: it runs over whole compaction
// cycles, where the bytes at one instant depend on whether a compaction had
// just run (0.87 to 1.49 of the live data at the end of identical fills).
func (s *sampler) meanDisk() float64 {
	var sum float64
	for _, v := range s.disk {
		sum += v
	}
	return sum / float64(len(s.disk))
}

// runRound runs one timed round: the clients work through their streams,
// then, if drain is set, the round waits for background work to finish
// inside the timed interval. tr is nil for an untraced round.
func runRound(st *store, g *gen, kind opKind, streams [][]uint32, drain bool, tr *tracer) (roundStats, error) {
	rs := roundStats{traced: tr != nil}
	clients := make([]*client, len(streams))
	var root *spanBuf
	if tr != nil {
		root = tr.buf(2)
	}
	for i, ops := range streams {
		size := func(used bool) int {
			if used {
				return len(ops)
			}
			return 0
		}
		c := &client{g: g, db: st.db, ops: ops,
			put:  newRecorder(size(kind == kindFill || kind == kindMixed)),
			get:  newRecorder(size(kind == kindGetUniform || kind == kindGetZipf || kind == kindMixed)),
			scan: newRecorder(size(kind == kindScan))}
		if tr != nil {
			per := 1 // spans per op
			if kind == kindScan {
				per = 4 + g.cfg.scanNexts // the op, open, seek, each next, close
			}
			c.sb = tr.buf(1 + per*len(ops))
		}
		clients[i] = c
		rs.ops += len(ops)
	}

	var smp *sampler
	if tr == nil {
		smp = startSampler(st.fs)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuTime()
	if err != nil {
		return rs, err
	}
	rs.before = readCounters(st.db.Metrics())

	start := now()
	var timedSpan uint32
	if tr != nil {
		timedSpan = root.open(0, 0, spTimed, start)
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		c.root = timedSpan
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(kind)
		}()
	}
	wg.Wait()
	end := now()
	if tr != nil {
		root.close(timedSpan, end)
	}
	if drain {
		if err := st.db.WaitIdle(); err != nil {
			return rs, fmt.Errorf("drain: %w", err)
		}
		t := now()
		rs.drainNs = t - end
		if tr != nil {
			root.add(0, 0, spDrain, end, t)
		}
		end = t
	}
	rs.wallNs = end - start

	cpu1, err := cpuTime()
	if err != nil {
		return rs, err
	}
	runtime.ReadMemStats(&ms1)
	rs.cpuNs = cpu1 - cpu0
	rs.mallocs = ms1.Mallocs - ms0.Mallocs
	if smp != nil {
		smp.finish()
		rs.heapPeak, rs.diskBytes = smp.heapPeak, smp.meanDisk()
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		rs.heapLive = float64(ms1.HeapAlloc) - float64(st.fs.TotalBytes())
	}
	rs.after = readCounters(st.db.Metrics())

	var puts, gets, scans []*recorder
	for _, c := range clients {
		rs.failed += c.failed
		if c.err != nil {
			return rs, fmt.Errorf("client op: %w", c.err)
		}
		puts, gets, scans = append(puts, c.put), append(gets, c.get), append(scans, c.scan)
	}
	rs.put, rs.get, rs.scan = merged(puts...), merged(gets...), merged(scans...)
	rs.all = merged(&recorder{ns: rs.put}, &recorder{ns: rs.get}, &recorder{ns: rs.scan})
	return rs, nil
}

// split deals a stream out to the clients: client c takes positions c,
// c+numClients, ...
func split(stream []uint32) [][]uint32 {
	out := make([][]uint32, numClients)
	for c := range out {
		out[c] = make([]uint32, 0, len(stream)/numClients+1)
	}
	for i, op := range stream {
		out[i%numClients] = append(out[i%numClients], op)
	}
	return out
}

// roundStreams generates the clients' op streams for one round of a
// read, scan or mixed workload.
func roundStreams(g *gen, kind opKind, ops int, stream uint64) [][]uint32 {
	out := make([][]uint32, numClients)
	for c := range out {
		out[c] = make([]uint32, ops/numClients)
		g.opStream(out[c], kind, stream+uint64(c))
	}
	return out
}

// roundOps is the op count of one timed round.
func (c config) roundOps(kind opKind) int {
	switch kind {
	case kindGetUniform:
		return c.getUniformRound
	case kindGetZipf:
		return c.getZipfRound
	case kindScan:
		return c.scanRound
	case kindMixed:
		return c.mixedRound
	}
	return c.fillRound
}

// setupResult is a store ready for the timed phase.
type setupResult struct {
	st        *store
	g         *gen
	fill      []uint32 // fill's op stream (timed on fill*; elsewhere the part the load replays)
	inputs    uint64   // hash of fill's op stream and the keys and values it produces
	ns        int64    // wall time of this set-up
	load      counters // what the load wrote, from the instance that built the store (loaded workloads)
	attempted int      // ops verified during warm-up
	failed    int
}

// setup does everything before the timed phase: generator prep, Open, the
// untimed load for a workload that runs on the loaded store, and warm-up.
func setup(w workload, cfg config, seed uint64, tr *tracer) (*setupResult, error) {
	// Start every set-up from a collected heap: the store the previous
	// set-up or round closed is garbage by now, and collecting it while
	// this set-up is timed would make setup_s measure that.
	runtime.GC()
	t0 := now()
	var sb *spanBuf
	if tr != nil {
		sb = tr.buf(2)
	}
	g := newGen(seed, cfg, w.kind)
	res := &setupResult{g: g, fill: g.fillStream()}
	if w.loaded() {
		res.fill = res.fill[:cfg.keys+cfg.loadOverwrites] // the part the load replays
	}
	// The fingerprint of the inputs is printed with the result, so that two
	// runs can show they fed the store the same bytes.
	res.inputs = g.streamHash(res.fill)
	var err error
	if w.loaded() {
		res.st, res.load, err = loadedStore(cfg, g, res.fill)
	} else {
		res.st, err = openStore(cfg, w.leveled, vfs.NewMem())
	}
	if err != nil {
		return nil, err
	}
	t1 := now()
	if sb != nil {
		sb.add(0, 0, spSetup, t0, t1)
	}
	if w.loaded() {
		warm := cfg.warmupOps
		if w.kind == kindScan {
			warm = cfg.scanRound
		}
		rs, err := runRound(res.st, g, w.kind, roundStreams(g, w.kind, warm, streamWarmup), w.kind == kindMixed, nil)
		if err != nil {
			res.st.db.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		res.attempted, res.failed = rs.ops, rs.failed
		if sb != nil {
			sb.add(0, 0, spWarmup, t1, now())
		}
	}
	res.ns = now() - t0
	return res, nil
}

// loadChunk is how many puts the load issues between drains: fewer than
// fill a memtable, so that every flush is one the load asks for.
const loadChunk = 2000

// loadedStore builds the state that read-uniform, read-zipf, scan and
// mixed run on, and builds the same layout on every run and every seed.
//
// ISSUE 11 asks for fill's end state, drained. Measured at 200 k keys over
// repeats of one seed, that state (two clients racing three compaction
// workers) leaves each level at a different point of its compaction cycle
// every time: a scan costs 41 to 61 us, 6.0 to 9.0 tables opened, a uniform
// get decodes 0.98 to 1.37 blocks. One client and one compaction worker
// without drains is no steadier (20 or 27 tables, scan 14 to 22 us) and
// leaves one compacted level, which is not what scan is about. Draining
// every loadChunk puts repeats exactly for one seed, but another seed can
// end on the other side of a level's push-down (scan 34 against 52 us).
// So the load fixes the phase: one client, one compaction worker, a flush
// and a drain every loadChunk puts; first every key once, in key order,
// compacted to the bottom, the same base whatever the seed; then the first
// cfg.loadOverwrites of fill's seeded uniform overwrites, left as
// compaction leaves them: about three sstables per guard, the state FLSM's
// seek cost is about. Tables per level and guards come out equal across
// seeds, bytes per level within 0.3%. The store is then reopened with the
// options of record.
func loadedStore(cfg config, g *gen, fill []uint32) (*store, counters, error) {
	fs := vfs.NewMem()
	o := cfg.options(false, fs)
	o.MaxCompactionConcurrency = 1
	db, err := pebblesdb.Open(storeDir, o)
	if err != nil {
		return nil, counters{}, fmt.Errorf("load: open: %w", err)
	}
	sorted := make([]uint32, cfg.keys)
	for i := range sorted {
		sorted[i] = uint32(i)
	}
	err = replay(db, g, sorted)
	if err == nil {
		err = db.CompactAll()
	}
	if err == nil {
		err = replay(db, g, fill[cfg.keys:cfg.keys+cfg.loadOverwrites])
	}
	if err != nil {
		db.Close()
		return nil, counters{}, fmt.Errorf("load: %w", err)
	}
	wrote := readCounters(db.Metrics())
	if err := db.Close(); err != nil {
		return nil, counters{}, fmt.Errorf("load: close: %w", err)
	}
	st, err := openStore(cfg, false, fs)
	return st, wrote, err
}

// replay puts the keys of ops from one client, flushing and draining every
// loadChunk puts.
func replay(db *pebblesdb.DB, g *gen, ops []uint32) error {
	var key [keyLen]byte
	var val [valueLen]byte
	for i, idx := range ops {
		putKey(key[:], idx)
		g.putValue(val[:], idx)
		if err := db.Put(key[:], val[:]); err != nil {
			return err
		}
		if (i+1)%loadChunk == 0 || i == len(ops)-1 {
			if err := db.Flush(); err != nil {
				return err
			}
			if err := db.WaitIdle(); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyFill full-scans the store after fill and counts every deviation
// from exactly cfg.keys keys, in order, each with its own value header.
func verifyFill(st *store, g *gen) (attempted, failed int, err error) {
	it, err := st.db.NewIter(nil)
	if err != nil {
		return 0, 0, fmt.Errorf("verify: %w", err)
	}
	next := uint32(0)
	for it.First(); it.Valid(); it.Next() {
		attempted++
		idx, ok := keyIndex(it.Key())
		if !ok || idx != next || !g.checkValue(idx, it.Value()) {
			failed++
		}
		if ok {
			next = idx + 1
		}
	}
	if err := it.Error(); err != nil {
		it.Close()
		return attempted, failed, fmt.Errorf("verify: %w", err)
	}
	if err := it.Close(); err != nil {
		return attempted, failed, fmt.Errorf("verify: %w", err)
	}
	if missing := g.cfg.keys - attempted; missing > 0 {
		attempted += missing
		failed += missing
	}
	return attempted, failed, nil
}

// crashCheck is the durability check: cfg.crashOps puts, each acknowledged
// with a sync, on a filesystem that then loses everything unsynced; after
// reopening, every acknowledged key must read back.
func crashCheck(cfg config, g *gen) (attempted, lost int, err error) {
	cfs := vfs.NewCrash()
	// The fence models the death of the process: once fenced, the old
	// instance's background work cannot write into the recovered state.
	fence := vfs.NewFenced(cfs)
	db, err := pebblesdb.Open("crash", cfg.options(false, fence))
	if err != nil {
		return 0, 0, fmt.Errorf("crash check open: %w", err)
	}
	r := newRNG(g.seed, 7)
	keys := make([]uint32, cfg.crashOps)
	var key [keyLen]byte
	var val [valueLen]byte
	b := db.NewBatch()
	for i := range keys {
		keys[i] = uint32(r.intn(uint64(cfg.keys)))
		putKey(key[:], keys[i])
		g.putValue(val[:], keys[i])
		b.Reset()
		b.Set(key[:], val[:])
		if err := db.Apply(b, pebblesdb.Sync); err != nil {
			db.Close()
			return 0, 0, fmt.Errorf("crash check put: %w", err)
		}
	}
	fence.Fence()
	cfs.Crash()
	_ = db.Close() // the fenced instance can only fail; this stops its goroutines

	db, err = pebblesdb.Open("crash", cfg.options(false, cfs))
	if err != nil {
		return 0, 0, fmt.Errorf("crash check reopen: %w", err)
	}
	defer db.Close()
	buf := make([]byte, 0, valueLen)
	for _, idx := range keys {
		putKey(key[:], idx)
		v, ok, err := db.GetTo(key[:], buf, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("crash check read: %w", err)
		}
		if !ok || !g.checkValue(idx, v) {
			lost++
		}
	}
	return len(keys), lost, nil
}

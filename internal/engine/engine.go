// Package engine implements the store machinery shared by PebblesDB and
// the LSM baselines: write-ahead logging, memtable rotation, write stalls
// (level0-slowdown / level0-stop, §5.1), background flush and compaction
// scheduling, snapshots, and crash recovery. The on-storage structure is a
// treebase.Core wired with the layout of internal/flsm or internal/leveled,
// mirroring how PebblesDB replaced how HyperLevelDB organises a level while
// reusing the rest (§4.4).
package engine

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/batch"
	"pebblesdb/internal/cache"
	"pebblesdb/internal/flsm"
	"pebblesdb/internal/leveled"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/vfs"
	"pebblesdb/internal/wal"
)

// ErrClosed is returned by operations on a closed store: the tree's own,
// which a read that reaches the tree once Close has begun returns.
var ErrClosed = treebase.ErrClosed

// ErrReadOnly marks writes rejected while the store is degraded by a
// background error. Match with errors.Is(err, ErrReadOnly); the original
// failure is available through errors.Unwrap. Reads keep serving in this
// state, and Resume restores writability when the cause was transient.
var ErrReadOnly = errors.New("engine: store is in read-only mode")

// readOnlyError wraps the background error that degraded the store so
// callers see both the mode (errors.Is(err, ErrReadOnly)) and the cause.
type readOnlyError struct{ cause error }

func (e *readOnlyError) Error() string {
	return fmt.Sprintf("engine: store is in read-only mode: %v", e.cause)
}
func (e *readOnlyError) Unwrap() error        { return e.cause }
func (e *readOnlyError) Is(target error) bool { return target == ErrReadOnly }

// bgErrPermanent classifies a background failure: corruption means the
// durable state itself is damaged, so retrying or resuming cannot help.
// Everything else (ENOSPC, injected IO errors, failed fsyncs) is
// environmental and may clear.
func bgErrPermanent(err error) bool {
	return errors.Is(err, sstable.ErrCorrupt) || errors.Is(err, wal.ErrCorrupt)
}

// Kind selects the on-storage structure.
type Kind int

const (
	// KindFLSM is the fragmented LSM (PebblesDB).
	KindFLSM Kind = iota
	// KindLeveled is the classic leveled LSM (the baselines).
	KindLeveled
)

// Engine is a single-node key-value store instance.
type Engine struct {
	cfg  *base.Config
	fs   vfs.FS
	dir  string
	tree *treebase.Core

	// commitMu serializes commit leaders: room checks, sequence
	// allocation and WAL appends. Memtable application and fsyncs happen
	// outside it (see commit.go).
	commitMu sync.Mutex

	// cq queues arriving batches for the next commit leader.
	cq commitQueue

	// pendMu guards the pending-commit publication queue; pend[pendHead:]
	// holds scheduled commits in sequence order until their memtable
	// applications land, at which point publishLocked ratchets seq and
	// pubCond wakes the owners.
	pendMu   sync.Mutex
	pend     []*commitRequest
	pendHead int
	pubCond  *sync.Cond

	// logSeq is the last *allocated* sequence number (guarded by
	// commitMu); seq below trails it until commits publish.
	logSeq uint64

	// mu protects the mutable fields below and feeds cond.
	mu         sync.Mutex
	cond       *sync.Cond
	mem        *memtable.Memtable
	imm        *memtable.Memtable
	walW       *wal.Writer
	walNum     base.FileNum
	flushing   bool
	compacting int
	// bgErr is the background error that degraded the store to read-only;
	// bgPermanent records its class (corruption cannot be resumed). Both
	// are cleared by Resume when the cause was transient. immLogNum and
	// immLastSeq are the pending flush's stamp, kept so Resume can re-run
	// an interrupted flush with the exact arguments the rotation chose.
	bgErr       error
	bgPermanent bool
	immLogNum   base.FileNum
	immLastSeq  base.SeqNum
	closed      bool
	// stallClear is closed and replaced when a compaction unit brings the
	// L0 count back under the slowdown trigger. Slowdown-stalled writers
	// select on it with a timeout: they wake the instant the stall
	// condition clears, but still sleep out the full backpressure tick
	// while L0 remains high (the 1ms delay is deliberate throttling, not
	// a poll interval — waking on arbitrary progress would defeat it).
	stallClear chan struct{}

	// seq is the volatile last-committed (visible) sequence number.
	seq atomic.Uint64

	// readOnly mirrors bgErr != nil for lock-free observation (metrics,
	// server status).
	readOnly atomic.Bool

	snapMu sync.Mutex
	snaps  map[base.SeqNum]int

	// cleaning is set while a cleanup lists the directory; a cleanup that
	// finds it set skips its own listing (see cleanup).
	cleaning atomic.Bool

	// rec is the always-on flight recorder: every lifecycle event is teed
	// into it (alongside any user listener) so a degradation comes with
	// its causal trace. flushID and stallID correlate begin/end pairs.
	rec     *obs.Recorder
	flushID atomic.Uint64
	stallID atomic.Uint64

	// stats is the live Counters instance (see Counters).
	stats *Counters
}

// Open creates or recovers a store of the given kind in dir.
func Open(cfg *base.Config, fs vfs.FS, dir string, kind Kind) (*Engine, error) {
	cfg.EnsureDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, fs: fs, dir: dir, snaps: make(map[base.SeqNum]int), stats: new(Counters)}
	e.cond = sync.NewCond(&e.mu)
	e.stallClear = make(chan struct{})
	e.pubCond = sync.NewCond(&e.pendMu)

	// Tee the flight recorder in front of any user listener so every
	// lifecycle event — including those emitted by the trees, WAL, and
	// manifest through this config — is retained for RecentEvents and the
	// degradation dump. Downstream code can rely on cfg.EventListener
	// being non-nil from here on.
	e.rec = obs.NewRecorder(0)
	cfg.EventListener = obs.Tee(e.rec, cfg.EventListener)

	var tree *treebase.Core
	var err error
	switch kind {
	case KindFLSM:
		tree, err = flsm.Open(cfg, fs, dir, e)
	case KindLeveled:
		tree, err = leveled.Open(cfg, fs, dir, e)
	default:
		err = fmt.Errorf("engine: unknown tree kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	e.tree = tree
	e.mem = memtable.New()

	maxSeq, err := e.replayWALs()
	if err != nil {
		tree.Close()
		return nil, err
	}
	if s := tree.PersistedLastSeq(); s > maxSeq {
		maxSeq = s
	}
	e.seq.Store(uint64(maxSeq))
	e.logSeq = uint64(maxSeq)

	if err := e.startNewWAL(); err != nil {
		tree.Close()
		return nil, err
	}

	// Flush anything recovered from the logs so the old WALs can go.
	if !e.mem.Empty() {
		recovered := e.mem
		e.mem = memtable.New()
		if err := tree.Flush(recovered.NewIter(), recovered.RangeDels(), e.walNum, maxSeq); err != nil {
			tree.Close()
			return nil, err
		}
	}

	e.cleanup()
	e.ScheduleCompaction()
	return e, nil
}

// replayWALs rebuilds the memtable from every log at or after the
// manifest's recovery watermark, in file-number order (§4.3.1).
func (e *Engine) replayWALs() (base.SeqNum, error) {
	names, err := e.fs.List(e.dir)
	if err != nil {
		return 0, err
	}
	var logs []base.FileNum
	for _, name := range names {
		ft, fn, ok := base.ParseFilename(name)
		if ok && ft == base.FileTypeLog && fn >= e.tree.LogNum() {
			logs = append(logs, fn)
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })

	var maxSeq base.SeqNum
	for _, fn := range logs {
		path := filepath.Join(e.dir, base.MakeFilename(base.FileTypeLog, fn))
		f, err := e.fs.Open(path)
		if err != nil {
			return 0, err
		}
		size, err := e.fs.Stat(path)
		if err != nil {
			f.Close()
			return 0, err
		}
		r, err := wal.NewReader(f, size)
		f.Close()
		if err != nil {
			return 0, err
		}
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, fmt.Errorf("engine: replaying %s: %w", path, err)
			}
			b, err := batch.FromRepr(rec)
			if err != nil {
				return 0, fmt.Errorf("engine: replaying %s: %w", path, err)
			}
			// Replayed like a live commit: into the memtable, guard
			// candidates into the tree.
			if err := e.applyBatch(b, e.mem); err != nil {
				return 0, err
			}
			if last := b.SeqNum() + base.SeqNum(b.Count()) - 1; b.Count() > 0 && last > maxSeq {
				maxSeq = last
			}
		}
	}
	return maxSeq, nil
}

// startNewWAL opens a fresh log; the caller holds no locks (open) or
// commitMu+mu (rotation). Closing the previous log drains its sync-request
// queue and references first, so an in-flight group fsync on the old log
// always completes; the wait is bounded by one fsync (sync leaders and ref
// holders release without taking engine locks). The close is synchronous
// on purpose — spawning it as a goroutine inside the rotation critical
// section measurably disturbs the flush/compaction pacing on small
// machines (2-3x fillrandom write amplification on one core).
func (e *Engine) startNewWAL() error {
	fn := e.tree.NewFileNum()
	f, err := e.fs.Create(filepath.Join(e.dir, base.MakeFilename(base.FileTypeLog, fn)))
	if err != nil {
		return err
	}
	if old := e.walW; old != nil {
		old.Close()
	}
	e.walW = wal.NewWriter(f)
	e.walW.SyncCounter = &e.stats.WALSyncs
	e.walW.Listener = e.cfg.EventListener
	e.walNum = fn
	e.cfg.Emit(obs.Event{
		Kind: obs.EventWALRotation, Nanos: obs.Monotonic(), Level: -1,
		FileNum: uint64(fn),
	})
	return nil
}

// cleanup deletes stale WALs and superseded manifests, found by listing
// the directory. Tables are the tree's to delete (treebase.State). The
// listings, one after each flush and unit, pace compaction by accident,
// and they keep the pace they had when a lock every read held serialised
// them: one runs at a time, and a cleanup that finds one running, or a
// read in flight, skips; a later one lists.
func (e *Engine) cleanup() {
	if e.tree.Reading() || !e.cleaning.CompareAndSwap(false, true) {
		return
	}
	defer e.cleaning.Store(false)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	curWAL := e.walNum
	e.mu.Unlock()

	logNum := e.tree.LogNum()
	manifestNum := e.tree.ManifestFileNum()
	names, err := e.fs.List(e.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		ft, fn, ok := base.ParseFilename(name)
		if !ok {
			continue
		}
		remove := false
		switch ft {
		case base.FileTypeLog:
			remove = fn < logNum && fn != curWAL
		case base.FileTypeManifest:
			remove = fn < manifestNum
		}
		if remove {
			e.fs.Remove(filepath.Join(e.dir, name))
		}
	}
}

// CommittedSeq implements part of treebase.Host: the live counter, not a
// read's own sequence, so a snapshot read cannot count across commits.
func (e *Engine) CommittedSeq() base.SeqNum { return base.SeqNum(e.seq.Load()) }

// SmallestSnapshot implements part of treebase.Host.
func (e *Engine) SmallestSnapshot() base.SeqNum {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	min := base.SeqNum(e.seq.Load())
	for s := range e.snaps {
		if s < min {
			min = s
		}
	}
	return min
}

// Snapshot captures the current sequence number; reads through it observe
// the store as of creation. Release with Close.
type Snapshot struct {
	e   *Engine
	seq base.SeqNum
}

// NewSnapshot registers a read snapshot.
func (e *Engine) NewSnapshot() *Snapshot {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	s := base.SeqNum(e.seq.Load())
	e.snaps[s]++
	return &Snapshot{e: e, seq: s}
}

// Seq returns the snapshot's sequence number.
func (s *Snapshot) Seq() base.SeqNum { return s.seq }

// Close releases the snapshot, letting compaction reclaim its versions.
func (s *Snapshot) Close() {
	s.e.snapMu.Lock()
	defer s.e.snapMu.Unlock()
	s.e.snaps[s.seq]--
	if s.e.snaps[s.seq] <= 0 {
		delete(s.e.snaps, s.seq)
	}
}

// ScheduleCompaction spins up background workers while the tree has work
// and capacity remains (multi-threaded compaction, §4.4). Open calls it,
// and as treebase.Host it answers a Get or an iterator seek that used up a
// seek budget (§4.2), whose unit would otherwise wait for the next flush —
// for ever under read-only traffic. The reading goroutine calls it with no
// lock held, at most once per budget used up, not once per read. It takes
// mu and, to size the pool, the core's lock after it — the order every
// scheduling call takes them in — and returns once a worker is started or
// none can be: the read never waits for the unit. After Close has set
// closed under mu it starts nothing, so no unit begins once Close returns.
func (e *Engine) ScheduleCompaction() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.maybeScheduleCompactionLocked()
}

func (e *Engine) maybeScheduleCompactionLocked() {
	if e.closed || e.bgErr != nil {
		return
	}
	for e.compacting < e.cfg.MaxCompactionConcurrency {
		// Size the pool to the work that is actually claimable: spawning
		// more workers than units just burns wakeups on claim conflicts.
		if e.tree.ClaimableUnits() <= e.compacting {
			return
		}
		// Flush priority: while a flush is running and L0 is still healthy,
		// hold the last worker slot back so the flush (which is what
		// unblocks writers) keeps IO and CPU headroom. Once L0 reaches the
		// slowdown trigger, draining it is the priority and every slot goes
		// to compaction.
		if e.flushing && e.compacting >= e.cfg.MaxCompactionConcurrency-1 &&
			e.tree.L0Count() < e.cfg.L0SlowdownTrigger {
			return
		}
		e.compacting++
		go e.compactWorker()
	}
}

// signalStallClearLocked wakes slowdown-stalled writers when the L0 count
// has dropped back under the slowdown trigger. Called with mu held after
// background work completes a unit.
func (e *Engine) signalStallClearLocked() {
	if e.tree.L0Count() >= e.cfg.L0SlowdownTrigger && e.bgErr == nil {
		return
	}
	close(e.stallClear)
	e.stallClear = make(chan struct{})
}

// setDegradedLocked records the first background error and flips the store
// into read-only mode: reads keep serving, writes return a wrapped
// ErrReadOnly, and background scheduling stops. Called with mu held.
func (e *Engine) setDegradedLocked(err error) {
	if e.bgErr != nil {
		return
	}
	e.bgErr = err
	e.bgPermanent = bgErrPermanent(err)
	if e.bgPermanent {
		atomic.AddInt64(&e.stats.BgPermanentErrors, 1)
	} else {
		atomic.AddInt64(&e.stats.BgRetryableErrors, 1)
	}
	e.readOnly.Store(true)
	e.cfg.Logger("engine: degraded to read-only: %v", err)
	detail := "retryable"
	if e.bgPermanent {
		detail = "permanent"
	}
	e.cfg.Emit(obs.Event{
		Kind: obs.EventReadOnly, Nanos: obs.Monotonic(), Level: -1,
		Err: err, Detail: detail,
	})
	// The degradation dump: everything the flight recorder retained up to
	// and including the transition, through the diagnostic logger.
	e.rec.Dump(e.cfg.Logger, fmt.Sprintf("degraded to read-only: %v", err))
	e.cond.Broadcast()
	e.signalStallClearLocked()
}

// maxBgRetryDelay caps the exponential backoff between background retries.
const maxBgRetryDelay = time.Second

// retryBg runs op, retrying transient failures with capped exponential
// backoff per Config.MaxBgRetries / BgRetryDelay. Corruption is
// never retried — the bytes will not get better. Returns op's final
// error. name labels the operation in background-error events so a
// flight-recorder dump identifies what failed.
func (e *Engine) retryBg(name string, op func() error) error {
	retries := e.cfg.MaxBgRetries
	if retries < 0 {
		retries = 0
	}
	delay := e.cfg.BgRetryDelay
	for attempt := 0; ; attempt++ {
		err := op()
		if err != nil {
			e.cfg.Emit(obs.Event{
				Kind: obs.EventBackgroundError, Nanos: obs.Monotonic(),
				Level: -1, Unit: uint64(attempt), Err: err, Detail: name,
			})
		}
		if err == nil || bgErrPermanent(err) || attempt >= retries {
			return err
		}
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return err
		}
		atomic.AddInt64(&e.stats.BgRetries, 1)
		time.Sleep(delay)
		if delay *= 2; delay > maxBgRetryDelay {
			delay = maxBgRetryDelay
		}
	}
}

// Resume clears a retryable background error and restores writability: it
// quiesces the pipeline, rotates to a fresh WAL (the old writer may be
// poisoned by a torn append or failed fsync), re-runs the flush the failure
// interrupted with its original stamp, and restarts background scheduling.
// Returns nil if the store was healthy, ErrClosed after Close, and the
// wrapped cause when the degradation is permanent (corruption).
func (e *Engine) Resume() error {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	e.mem.QuiesceWriters()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	for e.flushing || e.compacting > 0 {
		e.cond.Wait()
	}
	if e.bgErr == nil {
		return nil
	}
	if e.bgPermanent {
		return &readOnlyError{cause: e.bgErr}
	}
	if err := e.startNewWAL(); err != nil {
		return err
	}
	e.bgErr = nil
	e.readOnly.Store(false)
	atomic.AddInt64(&e.stats.Resumes, 1)
	e.cfg.Emit(obs.Event{Kind: obs.EventResume, Nanos: obs.Monotonic(), Level: -1})
	if e.imm != nil {
		// The interrupted flush keeps its original log/sequence stamp: its
		// data precedes everything in the memtable's WAL, so the recovery
		// watermark it publishes must not skip past that log.
		e.flushing = true
		go e.flushWorker(e.imm, e.immLogNum, e.immLastSeq)
	}
	e.cond.Broadcast()
	e.signalStallClearLocked()
	e.maybeScheduleCompactionLocked()
	return nil
}

// ReadOnly reports whether the store is degraded to read-only mode.
func (e *Engine) ReadOnly() bool { return e.readOnly.Load() }

// RecentEvents returns the flight recorder's retained lifecycle events,
// oldest-first.
func (e *Engine) RecentEvents() []obs.Event { return e.rec.Snapshot() }

func (e *Engine) compactWorker() {
	for {
		var did bool
		err := e.retryBg("compaction", func() error {
			var cerr error
			did, cerr = e.tree.CompactOnce()
			return cerr
		})
		e.mu.Lock()
		if err != nil {
			e.setDegradedLocked(err)
			e.compacting--
			e.cond.Broadcast()
			e.mu.Unlock()
			return
		}
		if !did {
			e.compacting--
			e.cond.Broadcast()
			e.signalStallClearLocked()
			e.mu.Unlock()
			e.cleanup()
			return
		}
		// A unit completed: wake stalled writers, look for more work.
		e.cond.Broadcast()
		e.signalStallClearLocked()
		e.maybeScheduleCompactionLocked()
		e.mu.Unlock()
		e.cleanup()
	}
}

// WaitIdle blocks until no flush or compaction is running or pending. The
// paper's "fully compacted" read benchmarks (Fig 5.1b seeks) use this.
// Waiters park on the engine condition variable — every flush/compaction
// transition broadcasts it — instead of polling on a timer, so they wake
// the moment the store goes quiescent.
func (e *Engine) WaitIdle() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.bgErr != nil {
			return e.bgErr
		}
		if e.flushing || e.imm != nil || e.compacting > 0 {
			e.cond.Wait()
			continue
		}
		if e.closed || !e.tree.NeedsCompaction() {
			return nil
		}
		e.maybeScheduleCompactionLocked()
		if e.compacting == 0 {
			// Nothing startable (closed or bgErr raced in); re-check above.
			continue
		}
		e.cond.Wait()
	}
}

// Dump writes the tree layout (cmd/flsmdump, Fig 3.1).
func (e *Engine) Dump(w io.Writer) { e.tree.Dump(w) }

// CheckInvariants verifies the tree's structural invariants against its
// tables (treebase.Core.CheckInvariants): for tests and tools.
func (e *Engine) CheckInvariants() error { return e.tree.CheckInvariants() }

// BlockCache returns the store's block cache: for tests and tools that walk
// it (cache.Held).
func (e *Engine) BlockCache() *cache.Cache { return e.tree.BlockCache() }

// Close flushes nothing (the WAL preserves the memtable), waits for
// background work and in-flight reads, and releases resources. Gets and
// iterators that raced past the closed check hold the tree's state, and the
// tree's Close waits for them: an open iterator therefore blocks Close until
// it is closed, which is the contract a serving shutdown wants — drain
// connections (closing their iterators), then close the store. A read that
// reaches the tree once Close has begun returns ErrClosed.
func (e *Engine) Close() error {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()

	// With commitMu held no new commits can be scheduled; wait for the
	// in-flight appliers to drain.
	e.mem.QuiesceWriters()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	for e.flushing || e.compacting > 0 {
		e.cond.Wait()
	}
	e.closed = true
	e.mu.Unlock()

	var first error
	if e.walW != nil {
		if err := e.walW.Sync(); err != nil && first == nil {
			first = err
		}
		if err := e.walW.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := e.tree.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

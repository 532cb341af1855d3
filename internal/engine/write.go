package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/batch"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/obs"
)

// batchPool lends Set, Delete and DeleteRange their one-op batch: a batch is
// dead when Apply returns (the WAL and the memtable copied out of it), so
// it goes back with the capacity it grew and the next put encodes into it.
var batchPool = sync.Pool{New: func() any { return batch.New() }}

// maxPooledBatch keeps a batch that once carried a huge value from pinning
// its buffer in the pool.
const maxPooledBatch = 1 << 20

func (e *Engine) applyPooled(b *batch.Batch, sync bool) error {
	err := e.Apply(b, sync)
	if b.ApproxSize() <= maxPooledBatch {
		b.Reset()
		batchPool.Put(b)
	}
	return err
}

// Set writes a single key-value pair.
func (e *Engine) Set(key, value []byte, sync bool) error {
	b := batchPool.Get().(*batch.Batch)
	b.Set(key, value)
	return e.applyPooled(b, sync)
}

// Delete writes a tombstone for key.
func (e *Engine) Delete(key []byte, sync bool) error {
	b := batchPool.Get().(*batch.Batch)
	b.Delete(key)
	return e.applyPooled(b, sync)
}

// DeleteRange writes one range tombstone deleting every key in [start,
// end) — O(1) writes regardless of how many keys the range covers. An
// empty range is a no-op.
func (e *Engine) DeleteRange(start, end []byte, sync bool) error {
	b := batchPool.Get().(*batch.Batch)
	b.DeleteRange(start, end)
	return e.applyPooled(b, sync)
}

func (e *Engine) setBgErr(err error) {
	e.mu.Lock()
	e.setDegradedLocked(err)
	e.mu.Unlock()
}

// makeRoomForWrite implements the write-stall state machine (§5.1's
// level0-slowdown and level0-stop parameters, plus memtable rotation).
// Called with commitMu held.
func (e *Engine) makeRoomForWrite(n int) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	delayed := false
	for {
		switch {
		case e.closed:
			return ErrClosed
		case e.bgErr != nil:
			return &readOnlyError{cause: e.bgErr}
		case !delayed && e.tree.L0Count() >= e.cfg.L0SlowdownTrigger && e.tree.L0Count() < e.cfg.L0StopTrigger:
			// Soft limit: delay this write once by 1ms of deliberate
			// backpressure, ceding CPU and IO to compaction — but wake
			// immediately if compaction brings L0 back under the trigger,
			// at which point the rest of the sleep would throttle nothing.
			atomic.AddInt64(&e.stats.SlowdownWrites, 1)
			clear := e.stallClear
			e.mu.Unlock()
			stall := e.stallID.Add(1)
			e.cfg.Emit(obs.Event{
				Kind: obs.EventWriteStallBegin, Nanos: obs.Monotonic(),
				Level: -1, Unit: stall, Detail: "slowdown",
			})
			start := time.Now()
			timer := time.NewTimer(time.Millisecond)
			select {
			case <-clear:
			case <-timer.C:
			}
			timer.Stop()
			d := time.Since(start)
			atomic.AddInt64(&e.stats.StallNanos, int64(d))
			e.cfg.Emit(obs.Event{
				Kind: obs.EventWriteStallEnd, Nanos: obs.Monotonic(),
				Level: -1, Unit: stall, Dur: d, Detail: "slowdown",
			})
			e.mu.Lock()
			delayed = true
		case e.mem.ApproxSize()+int64(n) <= int64(e.cfg.MemtableSize) || e.mem.Empty():
			// An empty memtable admits a commit of any size: one larger
			// than MemtableSize fits no memtable better than this one, and
			// rotating for it would flush nothing, for ever.
			return nil
		case e.imm != nil:
			// Previous memtable still flushing.
			atomic.AddInt64(&e.stats.MemtableWaits, 1)
			e.cond.Wait()
		case e.tree.L0Count() >= e.cfg.L0StopTrigger:
			// Hard limit: block until compaction drains level 0.
			atomic.AddInt64(&e.stats.StoppedWrites, 1)
			stall := e.stallID.Add(1)
			e.cfg.Emit(obs.Event{
				Kind: obs.EventWriteStallBegin, Nanos: obs.Monotonic(),
				Level: -1, Unit: stall, Detail: "stop",
			})
			start := time.Now()
			e.cond.Wait()
			d := time.Since(start)
			atomic.AddInt64(&e.stats.StallNanos, int64(d))
			e.cfg.Emit(obs.Event{
				Kind: obs.EventWriteStallEnd, Nanos: obs.Monotonic(),
				Level: -1, Unit: stall, Dur: d, Detail: "stop",
			})
		default:
			if err := e.rotateMemtableLocked(); err != nil {
				e.setDegradedLocked(err)
				return err
			}
		}
	}
}

// rotateMemtableLocked freezes the current memtable behind a fresh WAL and
// flushes it in the background. Called with commitMu and mu held (so no
// new writer reservations can arrive); it waits for in-flight appliers to
// drain before freezing, and stamps the flush with the last *allocated*
// sequence number — after the quiesce, every allocated commit is in the
// frozen memtable even if not yet published.
func (e *Engine) rotateMemtableLocked() error {
	if err := e.startNewWAL(); err != nil {
		return err
	}
	// Appliers ingest their guard candidates before they release their
	// reservation, so once the writers are quiesced the guards selected
	// from this memtable's keys exist before any compaction can consume
	// them.
	e.mem.QuiesceWriters()
	e.imm = e.mem
	e.mem = memtable.New()
	e.flushing = true
	// Record the flush stamp so Resume can re-run an interrupted flush
	// with the same arguments.
	e.immLogNum = e.walNum
	e.immLastSeq = base.SeqNum(e.logSeq)
	go e.flushWorker(e.imm, e.immLogNum, e.immLastSeq)
	return nil
}

// flushWorker writes one immutable memtable to level 0, retrying transient
// failures before degrading the store.
func (e *Engine) flushWorker(imm *memtable.Memtable, newLogNum base.FileNum, lastSeq base.SeqNum) {
	id := e.flushID.Add(1)
	inputBytes := imm.ApproxSize()
	e.cfg.Emit(obs.Event{
		Kind: obs.EventFlushBegin, Nanos: obs.Monotonic(), Level: 0,
		Unit: id, InputBytes: inputBytes, FileNum: uint64(newLogNum),
	})
	start := time.Now()
	err := e.retryBg("flush", func() error {
		return e.tree.Flush(imm.NewIter(), imm.RangeDels(), newLogNum, lastSeq)
	})
	e.cfg.Emit(obs.Event{
		Kind: obs.EventFlushEnd, Nanos: obs.Monotonic(), Level: 0,
		Unit: id, InputBytes: inputBytes, FileNum: uint64(newLogNum),
		Dur: time.Since(start), Err: err,
	})
	e.mu.Lock()
	if err != nil {
		e.setDegradedLocked(err)
	} else {
		e.imm = nil
		atomic.AddInt64(&e.stats.Flushes, 1)
	}
	e.flushing = false
	e.cond.Broadcast()
	e.maybeScheduleCompactionLocked()
	e.mu.Unlock()
	e.cleanup()
}

// Flush forces the current memtable to storage and waits for it.
func (e *Engine) Flush() error {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	// No new commits can be scheduled while commitMu is held (rotation and
	// scheduling both require it, so e.mem is stable here); wait out the
	// in-flight appliers so the flushed table and its guards match.
	e.mem.QuiesceWriters()

	e.mu.Lock()
	defer e.mu.Unlock()
	for e.imm != nil && e.bgErr == nil {
		e.cond.Wait()
	}
	if e.bgErr != nil {
		return &readOnlyError{cause: e.bgErr}
	}
	if e.mem.Empty() {
		return nil
	}
	if err := e.rotateMemtableLocked(); err != nil {
		// A failed rotation may have closed or poisoned the old WAL;
		// degrade like the write path does so no commit trusts it again.
		e.setDegradedLocked(err)
		return err
	}
	for e.imm != nil && e.bgErr == nil {
		e.cond.Wait()
	}
	if e.bgErr != nil {
		return &readOnlyError{cause: e.bgErr}
	}
	return nil
}

// CompactAll flushes and then drives compaction to quiescence on the
// calling goroutine (benchmarks measuring fully compacted stores).
func (e *Engine) CompactAll() error {
	if err := e.Flush(); err != nil {
		return err
	}
	if err := e.tree.CompactAll(); err != nil {
		return err
	}
	e.cleanup()
	return e.WaitIdle()
}

// Commit pipeline: a LevelDB/Pebble-style group commit, the store's one
// write path. Whichever writer wins the commit lock leads: it drains the
// queue of concurrently arriving batches (a lone writer leads a group of
// one, its own), assigns them a contiguous sequence range, appends them to
// the WAL as one record group and hands each batch back to its owning
// goroutine, which applies it to the (concurrent) memtable in parallel
// with the other committers. Visibility is published strictly in sequence
// order through a pending-commit queue that ratchets the visible sequence
// number, and a single fsync — shared through the WAL's sync-request
// queue — satisfies every sync waiter in the group. See DESIGN.md's
// "Commit pipeline" section.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pebblesdb/internal/base"
	"pebblesdb/internal/batch"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/metric"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/wal"
)

// commitRequest tracks one batch through the pipeline. The struct is the
// only per-commit allocation the pipeline makes: scheduling and
// publication signal through engine-wide conds, not per-request channels,
// so the uncontended path stays allocation-lean.
type commitRequest struct {
	b    *batch.Batch
	sync bool

	// Filled by the leader before scheduled is set.
	err    error
	mem    *memtable.Memtable // nil when the commit failed before scheduling
	endSeq base.SeqNum
	group  *commitGroup
	// stallNanos is the group's makeRoomForWrite duration, recorded by
	// the leader for the slow-op log. Only filled when SlowOpThreshold is
	// set; ordered by the scheduled release store.
	stallNanos int64

	// scheduled is set (with release semantics) once the fields above are
	// final; followers whose batch was taken by another leader poll it
	// (never parking on commitMu — see Apply).
	scheduled atomic.Bool
	// applied is set by the owner once the memtable holds the batch.
	applied atomic.Bool
	// published is guarded by Engine.pendMu; publishLocked sets it when
	// the visible sequence number passes endSeq.
	published bool
}

// commitGroup carries the state shared by every request the same leader
// scheduled: whether any of them asked for durability, and the result of
// the single fsync that covers them all.
type commitGroup struct {
	needSync bool
	syncErr  error
	syncDone chan struct{} // closed by the leader after the group fsync
}

// commitQueue collects batches waiting for a leader. Two backing arrays
// alternate between "being filled" and "being scheduled", so steady-state
// commits allocate no queue memory.
type commitQueue struct {
	mu   sync.Mutex
	reqs []*commitRequest
	// spare is the array handed out by the previous drain. It is touched
	// only inside drain, and drain callers are serialized by commitMu:
	// by the time the next drain recycles it, the previous leader has
	// finished scheduling out of it.
	spare []*commitRequest
}

func (q *commitQueue) enqueue(r *commitRequest) {
	q.mu.Lock()
	q.reqs = append(q.reqs, r)
	q.mu.Unlock()
}

// drain takes the queued requests, with own appended when it is not nil
// (the lock winner leads its own batch too). Called only with commitMu
// held. The returned array, grown by that append if need be, becomes the
// spare, so a lone writer's group of one reuses it instead of allocating.
func (q *commitQueue) drain(own *commitRequest) []*commitRequest {
	q.mu.Lock()
	reqs := q.reqs
	q.reqs = q.spare[:0]
	q.mu.Unlock()
	if own != nil {
		reqs = append(reqs, own)
	}
	q.spare = reqs
	return reqs
}

// Apply commits a batch atomically: one WAL record, consecutive sequence
// numbers, and memtable application. Every commit takes the one pipeline:
// whichever writer wins the commit lock schedules every queued batch and
// its own (a lone writer leads a group of one), all of them apply to the
// memtable in parallel, and sync waiters share fsyncs.
func (e *Engine) Apply(b *batch.Batch, sync bool) error {
	if b.Empty() {
		return nil
	}
	// Reject malformed batches before they are sequenced: once scheduled,
	// a batch that failed to decode midway through application would
	// still have to publish (the ratchet cannot skip it), exposing a
	// partial batch to readers. Validation runs outside all locks.
	if err := b.Validate(); err != nil {
		return err
	}
	// The commit timer reads the monotonic clock alone: time.Now would
	// read the wall clock too, nearly doubling its cost, for nothing.
	start := obs.Monotonic()
	if sync {
		atomic.AddInt64(&e.stats.SyncCommits, 1)
	}

	req := newCommitRequest(b, sync)
	var ledGroup *commitGroup
	var ledWal *wal.Writer
	if e.commitMu.TryLock() {
		ledGroup, ledWal = e.leadCommitLocked(e.cq.drain(req))
		e.commitMu.Unlock()
	} else {
		// A leader is active; queue up so it (or the next leader) groups
		// us. CRITICAL: never *block* on commitMu here. Once a leader
		// schedules this request it holds a memtable writer reservation
		// on its behalf, and a rotation inside commitMu waits for that
		// reservation to drain — a follower parked on commitMu.Lock
		// would deadlock the engine. So poll with TryLock, yielding (and
		// eventually sleeping, for write stalls that hold commitMu for
		// seconds) until either scheduled or able to lead.
		e.cq.enqueue(req)
		led := false
		for spins := 0; !req.scheduled.Load(); spins++ {
			if !led && e.commitMu.TryLock() {
				if req.scheduled.Load() {
					// Scheduled between the check and the lock: we hold
					// a reservation now, and leading could rotate and
					// wait on ourselves. Queued writers lead themselves.
					e.commitMu.Unlock()
					break
				}
				if group := e.cq.drain(nil); len(group) > 0 {
					// Our own request is either in this group (we
					// enqueued before draining) or was already taken by
					// another leader; either way it gets scheduled. Lead
					// at most one group so a second TryLock round cannot
					// overwrite an unfinished fsync duty.
					ledGroup, ledWal = e.leadCommitLocked(group)
					led = true
				}
				e.commitMu.Unlock()
				continue
			}
			if spins < 16 {
				runtime.Gosched()
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}

	// Stage timing for the slow-op log is only taken when the threshold
	// is configured, so the unconfigured pipeline pays one branch per
	// stage and no clock reads.
	slow := e.cfg.SlowOpThreshold > 0
	var st commitStages
	var t0 time.Time

	// Apply our own batch concurrently with the other group members.
	// applyBatch cannot fail for a validated batch; the error handling is
	// a backstop.
	applyErr := false
	if req.err == nil && req.mem != nil {
		if slow {
			t0 = time.Now()
		}
		if err := e.applyBatch(req.b, req.mem); err != nil {
			req.err = err
			applyErr = true
		}
		if slow {
			st.apply = time.Since(t0)
		}
	}
	if req.mem != nil {
		req.applied.Store(true)
		req.mem.WriterDone()
	}

	// Leader duty: one fsync covers every sync waiter in the led group
	// (ledGroup is only allocated when the group needs one), deduplicated
	// against concurrent groups by the WAL sync queue.
	if ledGroup != nil {
		if slow {
			t0 = time.Now()
		}
		ledGroup.syncErr = ledWal.SyncWait()
		if slow {
			st.walSync += time.Since(t0)
		}
		close(ledGroup.syncDone)
		ledWal.Unref()
	}
	// Error reporting only after WriterDone and Unref: setBgErr takes
	// e.mu, and a rotation holding e.mu may be spinning on this very
	// writer reservation (QuiesceWriters) or waiting inside the old WAL's
	// Close for this very reference.
	if applyErr {
		e.setBgErr(req.err)
	}
	if ledGroup != nil && ledGroup.syncErr != nil {
		e.setBgErr(ledGroup.syncErr)
	}

	if req.mem != nil {
		e.publishAndWait(req)
	}
	if req.sync && req.group != nil && req.group.needSync {
		if slow {
			t0 = time.Now()
		}
		<-req.group.syncDone
		if slow {
			// For the leader syncDone is already closed, so this adds ~0;
			// for followers it is the wait for the shared fsync.
			st.walSync += time.Since(t0)
		}
		if req.err == nil {
			req.err = req.group.syncErr
		}
	}
	if req.err == nil {
		atomic.AddInt64(&e.stats.Writes, int64(b.Count()))
	}
	total := time.Duration(obs.Monotonic() - start)
	e.observeCommitWait(total)
	if slow {
		st.stall = time.Duration(req.stallNanos)
		e.maybeLogSlowOp(total, st, int(b.Count()), req.sync)
	}
	// The owner is the last goroutine holding the request: the leader's
	// group slice is dead after scheduling, the commit queue slot was
	// drained, and the publication queue nils its slot before setting
	// published (which the owner has already observed). Clear the object
	// references so the pool does not pin retired memtables or batches.
	err := req.err
	req.b, req.mem, req.group = nil, nil, nil
	commitRequestPool.Put(req)
	return err
}

// commitStages breaks one commit's latency into the slow-op log's stage
// taxonomy: write-stall time (makeRoomForWrite), WAL fsync (or the wait
// for the group's shared fsync), and memtable application. Whatever is
// left of the total is queueing/publication wait.
type commitStages struct {
	stall   time.Duration
	walSync time.Duration
	apply   time.Duration
}

// maybeLogSlowOp emits one structured line through the store's logger for
// commits whose total latency reached Config.SlowOpThreshold.
func (e *Engine) maybeLogSlowOp(total time.Duration, st commitStages, entries int, sync bool) {
	th := e.cfg.SlowOpThreshold
	if th <= 0 || total < th {
		return
	}
	wait := total - st.stall - st.walSync - st.apply
	if wait < 0 {
		wait = 0
	}
	e.cfg.Logger(
		"engine: slow commit: total=%s wait=%s stall=%s wal_sync=%s apply=%s entries=%d sync=%t",
		total, wait, st.stall, st.walSync, st.apply, entries, sync)
}

var commitRequestPool = sync.Pool{New: func() any { return &commitRequest{} }}

func newCommitRequest(b *batch.Batch, sync bool) *commitRequest {
	req := commitRequestPool.Get().(*commitRequest)
	*req = commitRequest{b: b, sync: sync}
	return req
}

// leadCommitLocked schedules a group: room check, contiguous sequence
// assignment, memtable writer reservations, publication-queue enqueue and
// the WAL record-group append. Called with commitMu held. Returns the
// group state and the pinned WAL writer when the group needs an fsync, so
// the caller can perform that duty after releasing the lock.
func (e *Engine) leadCommitLocked(group []*commitRequest) (*commitGroup, *wal.Writer) {
	needSync := false
	var total int
	for _, r := range group {
		if r.sync {
			needSync = true
		}
		total += r.b.ApproxSize()
	}
	// Async-only groups never touch the group state, so don't allocate it.
	var g *commitGroup
	if needSync {
		g = &commitGroup{needSync: true, syncDone: make(chan struct{})}
	}

	// The slow-op log's stall stage costs one clock pair per group, and
	// only when the log is on.
	slow := e.cfg.SlowOpThreshold > 0
	var roomStart time.Time
	if slow {
		roomStart = time.Now()
	}
	if err := e.makeRoomForWrite(total); err != nil {
		// Fail the whole group before any of it was scheduled.
		if g != nil {
			g.syncErr = err
			close(g.syncDone)
		}
		for _, r := range group {
			r.err = err
			r.group = g
			r.scheduled.Store(true)
		}
		return nil, nil
	}
	var stallNanos int64
	if slow {
		stallNanos = int64(time.Since(roomStart))
	}

	// Pin the memtable and WAL for the group. Rotation only happens under
	// commitMu, so these stay valid until every reservation drains.
	mem := e.mem
	w := e.walW
	if g != nil {
		w.Ref()
	}
	for _, r := range group {
		r.group = g
		r.mem = mem
		r.stallNanos = stallNanos
		r.b.SetSeqNum(base.SeqNum(e.logSeq + 1))
		e.logSeq += uint64(r.b.Count())
		r.endSeq = base.SeqNum(e.logSeq)
		mem.ReserveWriter()
	}

	// Enqueue for in-order publication before anyone can apply.
	e.pendMu.Lock()
	e.pend = append(e.pend, group...)
	e.pendMu.Unlock()

	// One record per batch, appended back-to-back as a record group; the
	// single fsync that follows (if requested) covers all of them.
	var walErr error
	for _, r := range group {
		if walErr != nil {
			r.err = walErr
			continue
		}
		repr := r.b.Repr()
		if err := w.AddRecord(repr); err != nil {
			walErr = err
			r.err = err
			e.setBgErr(err)
			continue
		}
		atomic.AddInt64(&e.stats.WALBytes, int64(len(repr)))
	}
	// On a WAL error the requests are already scheduled; let them flow
	// through publication so the pipeline drains (bgErr fails every
	// subsequent commit anyway).

	atomic.AddInt64(&e.stats.CommitGroups, 1)
	atomic.AddInt64(&e.stats.CommitBatches, int64(len(group)))
	for _, r := range group {
		r.scheduled.Store(true)
	}
	return g, w
}

// applyBatch inserts b into mem and ingests its guard candidates inline.
// It is the one memtable-apply loop, run by every committer, so when Apply
// returns each guard candidate of the batch is in the tree: guards exist
// before a flush or compaction can consume the data they came from, with
// nothing to drain at rotation.
// Almost every key stops at WantGuard, a pure hash test. An applier holding
// a memtable writer reservation may take Core.mu, because the core never
// calls back into the engine under it.
func (e *Engine) applyBatch(b *batch.Batch, mem *memtable.Memtable) error {
	return b.Iterate(func(kind base.Kind, ukey, value []byte, s base.SeqNum) error {
		if kind == base.KindRangeDelete {
			mem.DeleteRange(ukey, value, s)
			return nil
		}
		mem.Set(ukey, s, kind, value)
		if e.tree.WantGuard(ukey) {
			e.tree.Ingest(ukey)
		}
		return nil
	})
}

// publishAndWait ratchets the publication queue and blocks until the
// caller's own commit is visible. Publication strictly follows sequence
// order: the head of the queue publishes only once applied, so a reader
// can never observe commit k+1 without commit k. Whichever applier
// finishes last publishes the whole applied prefix and wakes the rest.
func (e *Engine) publishAndWait(req *commitRequest) {
	e.pendMu.Lock()
	e.publishLocked()
	for !req.published {
		e.pubCond.Wait()
	}
	e.pendMu.Unlock()
}

func (e *Engine) publishLocked() {
	n := 0
	for e.pendHead < len(e.pend) && e.pend[e.pendHead].applied.Load() {
		r := e.pend[e.pendHead]
		e.pend[e.pendHead] = nil
		e.pendHead++
		e.seq.Store(uint64(r.endSeq))
		r.published = true
		n++
	}
	if e.pendHead == len(e.pend) {
		// Fully drained: rewind onto the same backing array so the
		// steady state appends without allocating.
		e.pend = e.pend[:0]
		e.pendHead = 0
	} else if e.pendHead >= 64 {
		// Saturated pipelines may never fully drain; compact the live
		// tail (bounded by the in-flight commit count) so the dead
		// prefix cannot grow without bound.
		n := copy(e.pend, e.pend[e.pendHead:])
		for i := n; i < len(e.pend); i++ {
			e.pend[i] = nil
		}
		e.pend = e.pend[:n]
		e.pendHead = 0
	}
	if n > 0 {
		e.pubCond.Broadcast()
	}
}

func (e *Engine) observeCommitWait(d time.Duration) {
	atomic.AddInt64(&e.stats.CommitWaitNanos, int64(d))
	for i, b := range metric.Buckets {
		if d <= b {
			atomic.AddInt64(&e.stats.CommitWaitHist[i], 1)
			return
		}
	}
	atomic.AddInt64(&e.stats.CommitWaitHist[len(metric.Buckets)], 1)
}

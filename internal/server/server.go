package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pebblesdb"
)

// Options tunes the server; the zero value selects the defaults.
type Options struct {
	// AccumBytes caps how many write-payload bytes a connection
	// accumulates before it must apply them. The cap bounds per-connection
	// memory and is the backpressure valve: once a flush is forced, the
	// connection's read loop blocks inside the engines' write path — which
	// stalls under compaction debt — and TCP pushes that stall back to the
	// client. Default 512 KiB.
	AccumBytes int
	// MaxScanLimit caps a single Scan response; requests asking for more
	// (or for 0 = server default) are clamped. Default 65536 / 1024.
	MaxScanLimit     int
	DefaultScanLimit int
	// Logf, when set, receives connection-level error logs and slow-op
	// lines.
	Logf func(format string, args ...any)
	// SlowOpThreshold, when positive, logs every RPC (and every
	// accumulated-write flush) slower than the threshold through Logf.
	// Pair it with Options.SlowOpThreshold on the shard stores to also get
	// the per-commit stage breakdown.
	SlowOpThreshold time.Duration
}

func (o Options) withDefaults() Options {
	if o.AccumBytes <= 0 {
		o.AccumBytes = 512 << 10
	}
	if o.MaxScanLimit <= 0 {
		o.MaxScanLimit = 65536
	}
	if o.DefaultScanLimit <= 0 {
		o.DefaultScanLimit = 1024
	}
	return o
}

// Server serves the wire protocol over M shard engines in one process.
// Keys route to shards via a consistent-hash ring; range operations
// (DeleteRange, Scan) broadcast to every shard, because hash routing
// scatters any key interval across all of them. The server does not own
// the shard DBs: Close drains connections, and the caller closes the
// shards afterwards (DB.Close itself waits out reads that raced the
// drain).
type Server struct {
	shards []*pebblesdb.DB
	ring   *ring
	opts   Options
	start  time.Time

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	totalConns atomic.Int64
	requests   atomic.Int64
}

// New returns a server over the given shard engines (at least one).
func New(shards []*pebblesdb.DB, opts *Options) *Server {
	if len(shards) == 0 {
		panic("server: no shards")
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	return &Server{
		shards: shards,
		ring:   newRing(len(shards)),
		opts:   o.withDefaults(),
		start:  time.Now(),
		lns:    make(map[net.Listener]struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until the listener fails or the server
// closes. It returns nil on a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if !s.track(c) {
			c.Close()
			return nil
		}
		go func() {
			defer s.untrack(c)
			s.serveConn(c)
		}()
	}
}

// ServeConn serves a single connection synchronously (tests, fuzzing, and
// custom accept loops). It returns when the connection ends.
func (s *Server) ServeConn(c net.Conn) {
	if !s.track(c) {
		c.Close()
		return
	}
	defer s.untrack(c)
	s.serveConn(c)
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	s.totalConns.Add(1)
	return true
}

func (s *Server) untrack(c net.Conn) {
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.wg.Done()
}

// Close drains the server: stop accepting, force every connection's read
// loop to fail, and wait for the handlers (including any in-flight apply)
// to return. The shard DBs stay open — the caller closes them next.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Shutdown drains the server gracefully: stop accepting, unblock every
// connection's next read so its handler answers what it has buffered,
// flushes, and returns, then wait for the handlers. Unlike Close, a
// handler mid-request finishes that request (including an in-flight
// apply) and its response reaches the client. Connections still alive
// after timeout are force-closed; Shutdown waits for them to unwind and
// reports whether the drain was clean.
func (s *Server) Shutdown(timeout time.Duration) error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		// An expired read deadline fails the connection's next blocking
		// ReadFrame without tearing down the socket, so the handler's final
		// responses still flush out before it returns.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		s.mu.Lock()
		stuck := len(s.conns)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("server: graceful drain timed out; force-closed %d connections", stuck)
	}
}

// Stats is the service-level snapshot the Stats RPC returns: connection
// and request accounting plus the shard engines' metrics merged into one
// aggregate (counters summed, histograms merged bucket-wise; see
// Metrics.Merge).
type Stats struct {
	Shards int `json:"shards" metric:"pebblesdb_server_shards" help:"Shard engines in this process."`
	// ReadOnlyShards counts shards currently degraded to read-only by a
	// background IO error; nonzero means some writes are failing with
	// StatusReadOnly while reads keep serving.
	ReadOnlyShards int     `json:"read_only_shards" metric:"pebblesdb_server_read_only_shards" help:"Shards degraded to read-only."`
	ActiveConns    int     `json:"active_conns" metric:"pebblesdb_server_active_conns" help:"Open client connections."`
	TotalConns     int64   `json:"total_conns" metric:"pebblesdb_server_conns_total" help:"Connections accepted."`
	Requests       int64   `json:"requests" metric:"pebblesdb_server_requests_total" help:"Wire requests handled."`
	UptimeSecs     float64 `json:"uptime_secs" metric:"pebblesdb_server_uptime_seconds" help:"Seconds since the server started."`
	// WriteAmplification is the aggregate ratio, derived from the summed
	// counters (not a mean of per-shard ratios).
	WriteAmplification float64           `json:"write_amplification" metric:"pebblesdb_write_amplification" help:"Total write IO / user bytes written."`
	Aggregate          pebblesdb.Metrics `json:"aggregate"`
}

// Stats merges every shard's metrics into one snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := len(s.conns)
	s.mu.Unlock()
	var agg pebblesdb.Metrics
	readOnly := 0
	for i, db := range s.shards {
		m := db.Metrics()
		if i == 0 {
			agg = m
		} else {
			agg.Merge(m)
		}
		if db.ReadOnly() {
			readOnly++
		}
	}
	return Stats{
		Shards:             len(s.shards),
		ReadOnlyShards:     readOnly,
		ActiveConns:        active,
		TotalConns:         s.totalConns.Load(),
		Requests:           s.requests.Load(),
		UptimeSecs:         time.Since(s.start).Seconds(),
		WriteAmplification: agg.WriteAmplification(),
		Aggregate:          agg,
	}
}

// conn is the per-connection state: buffered IO, the per-shard write
// accumulators, and scratch buffers reused across requests.
type conn struct {
	s  *Server
	br *bufio.Reader
	bw *bufio.Writer

	// batches accumulate writes per shard between flushes; pending counts
	// the wire requests they cover (each owed one response, in order).
	batches    []*pebblesdb.Batch
	pending    int
	accumBytes int
	sync       bool

	frame  []byte // frame read buffer
	resp   []byte // response build buffer
	getBuf []byte // Get destination buffer
	scan   scanScratch
}

// scanScratch is the per-connection Scan workspace: the per-shard result
// runs, the flat byte arena their keys and values copy into, and the merge
// cursors. Everything is reused across Scan RPCs, so a scan-heavy
// connection's steady state allocates only the pooled iterator checkout —
// not two copies per returned pair.
type scanScratch struct {
	runs  [][]kvRef
	heads []int
	arena []byte
}

// kvRef locates one scanned pair inside the scratch arena. Offsets stay
// valid when the arena's append reallocates it; slices would not.
type kvRef struct {
	koff, klen uint32
	voff, vlen uint32
}

func (sc *scanScratch) key(r kvRef) []byte { return sc.arena[r.koff : r.koff+r.klen] }
func (sc *scanScratch) val(r kvRef) []byte { return sc.arena[r.voff : r.voff+r.vlen] }

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{
		s:       s,
		br:      bufio.NewReaderSize(nc, 64<<10),
		bw:      bufio.NewWriterSize(nc, 64<<10),
		batches: make([]*pebblesdb.Batch, len(s.shards)),
	}
	for {
		payload, err := ReadFrame(c.br, c.frame)
		if err != nil {
			// Unacked accumulated writes die with the connection: they
			// were never applied, never answered, and the client cannot
			// assume otherwise. (Clean EOF between frames is the normal
			// end of a connection.)
			return
		}
		c.frame = payload[:0]
		req, perr := ParseRequest(payload)
		if perr != nil {
			// A malformed frame means the stream is not trustworthy
			// beyond this point (framing may be desynchronized): answer
			// with the parse error, flush, and drop the connection.
			// Accumulated writes are applied first — they were well-formed
			// requests and may already be what the client is relying on.
			if err := c.flushWrites(); err != nil && s.opts.Logf != nil {
				s.opts.Logf("server: apply before protocol error: %v", err)
			}
			c.writeResponse(StatusErr, []byte(perr.Error()))
			c.bw.Flush()
			return
		}
		s.requests.Add(1)
		slow := s.opts.SlowOpThreshold
		var t0 time.Time
		if slow > 0 {
			t0 = time.Now()
		}
		switch req.Op {
		case OpPut, OpDelete, OpDeleteRange, OpApplyBatch:
			c.accumulate(&req)
			if c.accumBytes >= s.opts.AccumBytes {
				if err := c.flushWrites(); err != nil {
					return
				}
			}
		case OpGet:
			if err := c.flushWrites(); err != nil {
				return
			}
			c.handleGet(req.Key)
		case OpScan:
			if err := c.flushWrites(); err != nil {
				return
			}
			c.handleScan(&req)
		case OpStats:
			if err := c.flushWrites(); err != nil {
				return
			}
			c.handleStats()
		case OpPing:
			if err := c.flushWrites(); err != nil {
				return
			}
			c.writeResponse(StatusOK, nil)
		}
		if slow > 0 && s.opts.Logf != nil {
			// Write ops are covered at flush time (flushWrites), where the
			// engine commit actually happens.
			switch req.Op {
			case OpGet, OpScan, OpStats, OpPing:
				if d := time.Since(t0); d >= slow {
					s.opts.Logf("server: slow op: %s total=%s key=%dB", req.Op, d, len(req.Key))
				}
			}
		}
		// The pipelining heart: while more requests are already buffered,
		// keep decoding and accumulating; the moment the connection goes
		// quiet, apply what accumulated and flush the responses out. A
		// client streaming N puts gets them committed in a handful of
		// group commits; a client doing request/response ping-pong gets
		// every reply immediately.
		if c.br.Buffered() == 0 {
			if err := c.flushWrites(); err != nil {
				return
			}
			if err := c.bw.Flush(); err != nil {
				return
			}
		}
	}
}

// accumulate routes one write request into the per-shard batches.
func (c *conn) accumulate(req *Request) {
	if req.Flags&FlagSync != 0 {
		c.sync = true
	}
	switch req.Op {
	case OpPut:
		c.batch(c.s.ring.shard(req.Key)).Set(req.Key, req.Val)
		c.accumBytes += len(req.Key) + len(req.Val)
	case OpDelete:
		c.batch(c.s.ring.shard(req.Key)).Delete(req.Key)
		c.accumBytes += len(req.Key)
	case OpDeleteRange:
		// One routed range tombstone per shard: the range covers hashed
		// keys on every shard, and each tombstone is O(1) regardless of
		// how many keys it deletes — a tenant drop costs M tombstones.
		for i := range c.s.shards {
			c.batch(i).DeleteRange(req.Key, req.Val)
			c.accumBytes += len(req.Key) + len(req.Val)
		}
	case OpApplyBatch:
		for _, op := range req.Ops {
			switch op.Kind {
			case BatchSet:
				c.batch(c.s.ring.shard(op.Key)).Set(op.Key, op.Val)
			case BatchDelete:
				c.batch(c.s.ring.shard(op.Key)).Delete(op.Key)
			case BatchDeleteRange:
				for i := range c.s.shards {
					c.batch(i).DeleteRange(op.Key, op.Val)
				}
			}
			c.accumBytes += len(op.Key) + len(op.Val)
		}
	}
	c.pending++
}

func (c *conn) batch(shard int) *pebblesdb.Batch {
	if c.batches[shard] == nil {
		c.batches[shard] = c.s.shards[shard].NewBatch()
	}
	return c.batches[shard]
}

// flushWrites applies the accumulated per-shard batches — concurrently
// when more than one shard is involved, so one connection's flush spans
// shards in parallel and each shard's Apply joins whatever group commit
// is forming there — then answers every covered request in order.
func (c *conn) flushWrites() error {
	if c.pending == 0 {
		return nil
	}
	wo := pebblesdb.NoSync
	if c.sync {
		wo = pebblesdb.Sync
	}
	slow := c.s.opts.SlowOpThreshold
	var t0 time.Time
	if slow > 0 {
		t0 = time.Now()
	}
	var firstErr error
	var active []int
	for i, b := range c.batches {
		if b != nil && b.Count() > 0 {
			active = append(active, i)
		}
	}
	if len(active) == 1 {
		firstErr = c.s.shards[active[0]].Apply(c.batches[active[0]], wo)
	} else if len(active) > 1 {
		errs := make([]error, len(active))
		var wg sync.WaitGroup
		for n, i := range active {
			wg.Add(1)
			go func(n, i int) {
				defer wg.Done()
				errs[n] = c.s.shards[i].Apply(c.batches[i], wo)
			}(n, i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	for _, i := range active {
		c.batches[i].Reset()
	}
	if slow > 0 && c.s.opts.Logf != nil {
		if d := time.Since(t0); d >= slow {
			c.s.opts.Logf("server: slow write flush: total=%s requests=%d shards=%d sync=%t",
				d, c.pending, len(active), c.sync)
		}
	}
	// One response per accumulated wire request, in arrival order. A
	// failed apply fails every request in the flushed group: they shared
	// its batches, and per-request attribution would claim a precision
	// the engine does not offer.
	status, body := StatusOK, []byte(nil)
	if firstErr != nil {
		body = []byte(firstErr.Error())
		if errors.Is(firstErr, pebblesdb.ErrReadOnly) {
			status = StatusReadOnly
		} else {
			status = StatusErr
		}
	}
	for n := 0; n < c.pending; n++ {
		c.writeResponse(status, body)
	}
	c.pending = 0
	c.accumBytes = 0
	c.sync = false
	if status == StatusReadOnly {
		// A read-only shard is a degraded-but-serving condition: writes are
		// rejected, reads still work. Keep the connection — the client saw
		// the distinct status and can fall back to reads or back off,
		// without paying a reconnect against a server that would refuse the
		// same writes again.
		return nil
	}
	// Any other failed apply is a store-level condition (background error
	// or a closing shard), not a per-request one: the requests were
	// answered, and the connection drops so the client re-establishes
	// against a healthy server.
	return firstErr
}

func (c *conn) handleGet(key []byte) {
	shard := c.s.ring.shard(key)
	v, ok, err := c.s.shards[shard].GetTo(key, c.getBuf[:0], nil)
	switch {
	case err != nil:
		c.writeResponse(StatusErr, []byte(err.Error()))
	case !ok:
		c.writeResponse(StatusNotFound, nil)
	default:
		c.getBuf = v[:0]
		c.writeResponse(StatusOK, v)
	}
}

func (c *conn) handleScan(req *Request) {
	limit := int(req.Limit)
	if limit <= 0 {
		limit = c.s.opts.DefaultScanLimit
	}
	if limit > c.s.opts.MaxScanLimit {
		limit = c.s.opts.MaxScanLimit
	}
	sc := &c.scan
	if len(sc.runs) != len(c.s.shards) {
		sc.runs = make([][]kvRef, len(c.s.shards))
		sc.heads = make([]int, len(c.s.shards))
	}
	sc.arena = sc.arena[:0]
	var lower, upper []byte
	if len(req.Key) > 0 {
		lower = req.Key
	}
	if len(req.Val) > 0 {
		upper = req.Val
	}
	for i, db := range c.s.shards {
		run := sc.runs[i][:0]
		it, err := db.NewIter(&pebblesdb.IterOptions{LowerBound: lower, UpperBound: upper})
		if err != nil {
			c.writeResponse(StatusErr, []byte(err.Error()))
			return
		}
		for it.First(); it.Valid() && len(run) < limit; it.Next() {
			k, v := it.Key(), it.Value()
			koff := uint32(len(sc.arena))
			sc.arena = append(sc.arena, k...)
			voff := uint32(len(sc.arena))
			sc.arena = append(sc.arena, v...)
			run = append(run, kvRef{koff, uint32(len(k)), voff, uint32(len(v))})
		}
		sc.runs[i] = run
		if err := it.Close(); err != nil {
			c.writeResponse(StatusErr, []byte(err.Error()))
			return
		}
	}
	// Merge the per-shard ascending runs into the response in one pass.
	// Shard counts are small, so a linear scan over the heads beats heap
	// bookkeeping.
	total := 0
	for _, r := range sc.runs {
		total += len(r)
	}
	if total > limit {
		total = limit
	}
	body := c.resp[:0]
	body = binary.AppendUvarint(body, uint64(total))
	for i := range sc.heads {
		sc.heads[i] = 0
	}
	for n := 0; n < total; n++ {
		best := -1
		for i, r := range sc.runs {
			if sc.heads[i] >= len(r) {
				continue
			}
			if best < 0 || bytes.Compare(sc.key(r[sc.heads[i]]), sc.key(sc.runs[best][sc.heads[best]])) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		ref := sc.runs[best][sc.heads[best]]
		sc.heads[best]++
		body = appendBytes(body, sc.key(ref))
		body = appendBytes(body, sc.val(ref))
	}
	c.resp = body[:0]
	c.writeResponse(StatusOK, body)
}

func (c *conn) handleStats() {
	data, err := json.Marshal(c.s.Stats())
	if err != nil {
		c.writeResponse(StatusErr, []byte(err.Error()))
		return
	}
	c.writeResponse(StatusOK, data)
}

// writeResponse appends one framed response to the buffered writer. Write
// errors surface at the next bw.Flush; the read loop exits then.
func (c *conn) writeResponse(st Status, body []byte) {
	var hdr [5]byte
	n := uint32(1 + len(body))
	hdr[0], hdr[1], hdr[2], hdr[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	hdr[4] = byte(st)
	c.bw.Write(hdr[:])
	if len(body) > 0 {
		c.bw.Write(body)
	}
}

// String renders an opcode for logs.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "Ping"
	case OpGet:
		return "Get"
	case OpPut:
		return "Put"
	case OpDelete:
		return "Delete"
	case OpDeleteRange:
		return "DeleteRange"
	case OpScan:
		return "Scan"
	case OpApplyBatch:
		return "ApplyBatch"
	case OpStats:
		return "Stats"
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// epoch anchors every timestamp of the run; now() is nanoseconds since it
// on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed interval recorded by the benchmark around a call into
// the program (spans inside the program are a later change). Spans of one
// client op share Op.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"` // 0 = root
	Op     uint32 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names. Roots: one per phase, plus one for the drivers. Every driver
// call is a span named after the metric it produces.
const (
	spSetup     = "setup"
	spWarmup    = "warmup"
	spTimed     = "timed"
	spDrain     = "drain"
	spDrivers   = "drivers"
	spClient    = "client"
	spPut       = "put"
	spGet       = "get"
	spScan      = "scan"
	spIterOpen  = "iter_open"
	spSeek      = "seek"
	spNext      = "next"
	spIterClose = "iter_close"
)

// spanBuf is one goroutine's preallocated span storage: appending to it
// takes no lock and, within capacity, no allocation.
type spanBuf struct {
	base  uint32
	spans []span
}

// open starts a span and returns its id; close ends it.
func (b *spanBuf) open(parent, op uint32, name string, start int64) uint32 {
	id := b.base + uint32(len(b.spans)) + 1
	b.spans = append(b.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	return id
}

func (b *spanBuf) close(id uint32, end int64) { b.spans[id-b.base-1].End = end }

// add records a finished span.
func (b *spanBuf) add(parent, op uint32, name string, start, end int64) {
	b.close(b.open(parent, op, name, start), end)
}

// tracer owns the span buffers of a traced run. A nil *tracer means the
// run is untraced.
type tracer struct {
	mu   sync.Mutex
	next uint32
	bufs []*spanBuf
}

// buf reserves capacity span ids and returns a buffer for one goroutine.
func (t *tracer) buf(capacity int) *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{base: t.next, spans: make([]span, 0, capacity)}
	t.next += uint32(capacity)
	t.bufs = append(t.bufs, b)
	return b
}

// each calls fn for every recorded span.
func (t *tracer) each(fn func(s *span)) {
	for _, b := range t.bufs {
		for i := range b.spans {
			fn(&b.spans[i])
		}
	}
}

// writeFile writes the spans to path as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.each(func(s *span) {
		if err == nil {
			err = enc.Encode(s)
		}
	})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count     int
	totalNs   int64
	selfNs    int64    // duration minus the part covered by child spans
	durations []uint32 // sorted; kept only for the names summarize was asked to keep
}

// traceSummary is what a traced run derives from its spans.
type traceSummary struct {
	byName map[string]*spanStat
	// nestingErr is the largest relative difference, over the client
	// spans, between a client span's duration and the self times summed
	// over its subtree. Properly nested spans give 0.
	nestingErr float64
}

// summarize computes self times and per-name totals, keeping the sorted
// durations of the names in keep.
func (t *tracer) summarize(keep ...string) traceSummary {
	childNs := make([]int64, t.next+1)
	parentOf := make([]uint32, t.next+1)
	isClient := make([]bool, t.next+1)
	t.each(func(s *span) {
		childNs[s.Parent] += s.End - s.Start
		parentOf[s.ID] = s.Parent
		isClient[s.ID] = s.Name == spClient
	})
	sum := traceSummary{byName: map[string]*spanStat{}}
	kept := map[string]*recorder{}
	for _, k := range keep {
		kept[k] = &recorder{}
	}
	subtreeSelf := make([]int64, t.next+1) // by client span id
	t.each(func(s *span) {
		st := sum.byName[s.Name]
		if st == nil {
			st = &spanStat{}
			sum.byName[s.Name] = st
		}
		d := s.End - s.Start
		self := max(d-childNs[s.ID], 0)
		st.count++
		st.totalNs += d
		st.selfNs += self
		if rec := kept[s.Name]; rec != nil {
			rec.add(d)
		}
		for id := s.ID; id != 0; id = parentOf[id] {
			if isClient[id] {
				subtreeSelf[id] += self
				break
			}
		}
	})
	t.each(func(s *span) {
		if d := s.End - s.Start; isClient[s.ID] && d > 0 {
			sum.nestingErr = max(sum.nestingErr, math.Abs(float64(subtreeSelf[s.ID]-d))/float64(d))
		}
	})
	for name, rec := range kept {
		if st := sum.byName[name]; st != nil {
			st.durations = merged(rec)
		}
	}
	return sum
}

func (s traceSummary) stat(name string) *spanStat {
	if st := s.byName[name]; st != nil {
		return st
	}
	return &spanStat{}
}

// print writes one row per span name: count, total and self time.
func (s traceSummary) print(w io.Writer) {
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		st := s.byName[n]
		if st.count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-36s %10d %14.3f %14.3f\n", n, st.count, float64(st.totalNs)/1e6, float64(st.selfNs)/1e6)
	}
	fmt.Fprintf(w, "span nesting error (client span vs self times of its subtree): %.4f\n", s.nestingErr)
}

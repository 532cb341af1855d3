package pebblesdb

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pebblesdb/internal/vfs"
)

// eventLog collects listener events under a lock so concurrent background
// goroutines can emit into it safely.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) add(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// TestListenerEventCompleteness drives flushes and a full compaction on
// both tree shapes and checks the event stream is well formed: every begin
// has a matching end, compaction pairs correlate by unit id on the same
// level, ends carry non-negative durations and output volumes, and each
// emitter's events arrive in the order it stamped them.
func TestListenerEventCompleteness(t *testing.T) {
	for _, p := range []Preset{PresetPebblesDB, PresetLevelDB} {
		t.Run(p.String(), func(t *testing.T) {
			var log eventLog
			o := testOptions(p)
			o.EventListener = EventFunc(log.add)
			db, err := Open("db", o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			val := make([]byte, 512)
			for i := 0; i < 2000; i++ {
				key := fmt.Appendf(nil, "key%06d", i%800)
				if err := db.Put(key, val); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}

			events := log.snapshot()
			counts := map[EventKind]int{}
			for _, e := range events {
				counts[e.Kind]++
			}
			if counts[EventFlushBegin] == 0 {
				t.Fatal("no flushes observed; workload too small for the event test")
			}
			if counts[EventFlushBegin] != counts[EventFlushEnd] {
				t.Errorf("flush begin/end mismatch: %d begins, %d ends",
					counts[EventFlushBegin], counts[EventFlushEnd])
			}
			if counts[EventCompactionBegin] == 0 {
				t.Fatal("no compactions observed; CompactAll should have compacted")
			}
			if counts[EventCompactionBegin] != counts[EventCompactionEnd] {
				t.Errorf("compaction begin/end mismatch: %d begins, %d ends",
					counts[EventCompactionBegin], counts[EventCompactionEnd])
			}
			if counts[EventWriteStallBegin] != counts[EventWriteStallEnd] {
				t.Errorf("write-stall begin/end mismatch: %d begins, %d ends",
					counts[EventWriteStallBegin], counts[EventWriteStallEnd])
			}

			// Correlate compaction pairs by unit id: each begin must be
			// followed by exactly one end on the same level carrying the
			// unit's output volume.
			begins := map[uint64]Event{}
			for _, e := range events {
				switch e.Kind {
				case EventCompactionBegin:
					if _, dup := begins[e.Unit]; dup {
						t.Errorf("unit %d: duplicate compaction begin", e.Unit)
					}
					begins[e.Unit] = e
				case EventCompactionEnd:
					b, ok := begins[e.Unit]
					if !ok {
						t.Errorf("unit %d: compaction end without begin", e.Unit)
						continue
					}
					delete(begins, e.Unit)
					if b.Level != e.Level {
						t.Errorf("unit %d: begin level %d, end level %d", e.Unit, b.Level, e.Level)
					}
					if e.Dur < 0 {
						t.Errorf("unit %d: negative duration %v", e.Unit, e.Dur)
					}
					if e.Err == nil && e.Detail != "trivial-move" && e.OutputTables < 0 {
						t.Errorf("unit %d: negative output tables %d", e.Unit, e.OutputTables)
					}
					if b.InputTables <= 0 {
						t.Errorf("unit %d: compaction began with %d input tables", e.Unit, b.InputTables)
					}
				}
			}
			if len(begins) != 0 {
				t.Errorf("%d compaction begins never ended: %v", len(begins), begins)
			}

			// Every event is stamped on the shared clock when it happens and
			// delivered afterwards, so two emitters may deliver out of stamp
			// order. What the stream promises is order per emitter — a flush
			// or a compaction unit, told apart by Unit: its begin is
			// delivered before its end, and is not stamped after it.
			type emitter struct {
				flush bool
				unit  uint64
			}
			began := map[emitter]int64{}
			for i, e := range events {
				if e.Nanos <= 0 {
					t.Fatalf("event %d (%v) carries no timestamp", i, e.Kind)
				}
				who := emitter{e.Kind == EventFlushBegin || e.Kind == EventFlushEnd, e.Unit}
				switch e.Kind {
				case EventFlushBegin, EventCompactionBegin:
					began[who] = e.Nanos
				case EventFlushEnd, EventCompactionEnd:
					if at, ok := began[who]; !ok || e.Nanos < at {
						t.Fatalf("event %d (%v of unit %d) stamped %d: its begin was delivered=%v, stamped %d", i, e.Kind, e.Unit, e.Nanos, ok, at)
					}
				}
			}

			// The built-in flight recorder saw the same stream: RecentEvents
			// works without any listener configured.
			if len(db.RecentEvents()) == 0 {
				t.Error("RecentEvents returned nothing after flushes and compactions")
			}
		})
	}
}

// TestFlightRecorderFlushFailure injects a sticky write failure under a
// flush and checks the flight recorder retained the failure: the recorded
// stream must name the failed operation ("flush") and include the
// read-only transition, and the degradation dump must reach the logger.
func TestFlightRecorderFlushFailure(t *testing.T) {
	efs := vfs.NewErr(vfs.NewMem())
	o := testOptions(PresetPebblesDB)
	o.WithFS(efs)
	o.MaxBgRetries = 0
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Fail the second create from here: the first is the WAL rotation at
	// the head of Flush (foreground), the second is the level-0 table file
	// inside the background flush — which is where the failure must land
	// for the recorder to attribute it to the flush.
	efs.FailAt(efs.OpCount()+1, vfs.OpCreate, nil, true)
	if err := db.Flush(); err == nil {
		t.Fatal("flush over a failing filesystem succeeded")
	}
	if !db.ReadOnly() {
		t.Fatal("store did not degrade to read-only after the flush failure")
	}

	events := db.RecentEvents()
	if len(events) == 0 {
		t.Fatal("flight recorder is empty after an injected flush failure")
	}
	var sawBgErr, sawReadOnly bool
	for _, e := range events {
		switch e.Kind {
		case EventBackgroundError:
			if e.Detail == "flush" && e.Err != nil {
				sawBgErr = true
			}
		case EventReadOnly:
			sawReadOnly = true
		}
	}
	if !sawBgErr {
		t.Errorf("no background-error event naming the failed flush in %d recorded events", len(events))
	}
	if !sawReadOnly {
		t.Errorf("no read-only transition event in %d recorded events", len(events))
	}
}

// BenchmarkListenerOverhead measures the cost the event system adds to the
// write path: "off" is the default (flight recorder only), "listener" adds
// a user EventFunc on top. The EXPERIMENTS.md observability note records
// the delta; it must stay under 2%.
func BenchmarkListenerOverhead(b *testing.B) {
	run := func(b *testing.B, listener EventListener) {
		o := testOptions(PresetPebblesDB)
		o.MemtableSize = 1 << 20
		o.EventListener = listener
		db, err := Open("db", o)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		val := make([]byte, 128)
		key := make([]byte, 0, 32)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key = fmt.Appendf(key[:0], "key%09d", i)
			if err := db.Put(key, val); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("listener", func(b *testing.B) {
		var events int
		var mu sync.Mutex
		run(b, EventFunc(func(e Event) {
			mu.Lock()
			events++
			mu.Unlock()
		}))
	})
}

// TestMetricsScrapeRace scrapes Metrics concurrently with a write workload
// that saturates flush and compaction. Under -race this catches torn reads
// in the stats snapshot; the invariant checks catch cross-field tearing
// (ends exceeding begins) that a single racy load would produce.
func TestMetricsScrapeRace(t *testing.T) {
	o := testOptions(PresetPebblesDB)
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			val := make([]byte, 256)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := fmt.Appendf(nil, "g%d/key%06d", g, i%2000)
				if err := db.Put(key, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var agg Metrics
			for i := 0; i < 400; i++ {
				m := db.Metrics()
				if m.Flushes < 0 || m.Tree.Compactions < 0 {
					t.Errorf("negative counters in scrape: %+v", m)
					return
				}
				agg.Merge(m)
				_ = m.String()
			}
		}()
	}
	// Let the writers run until the scrapers finish a full pass, so the
	// scrapes overlap live flushes and compactions rather than a quiet tail.
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		var m Metrics
		for i := 0; i < 400; i++ {
			m.Merge(db.Metrics())
		}
	}()
	<-scraped
	close(done)
	wg.Wait()

	m := db.Metrics()
	if !strings.Contains(m.String(), "level") {
		t.Error("Metrics.String lost its per-level table")
	}
}

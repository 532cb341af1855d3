// Command dbloadgen drives a dbserver over the wire: N concurrent
// connections, a configurable read/write/scan mix, per-tenant key
// prefixes, and pipelined requests. It reports ops/s and log-histogram
// latency percentiles per operation class, machine-readably with -json.
// An optional tenant teardown phase drops whole tenants with one
// DeleteRange frame each and verifies the keys are gone.
//
// Example:
//
//	dbloadgen -addr=127.0.0.1:6380 -conns=64 -ops=1000000 \
//	          -read_pct=70 -scan_pct=5 -tenants=16 -drop_tenants=2 -json=out.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pebblesdb/internal/harness"
	"pebblesdb/internal/server"
)

var (
	addr      = flag.String("addr", "127.0.0.1:6380", "dbserver address")
	conns     = flag.Int("conns", 64, "concurrent client connections")
	ops       = flag.Int("ops", 1_000_000, "total operations across all connections")
	valueSize = flag.Int("value_size", 1024, "value size in bytes (~50% compressible)")
	readPct   = flag.Int("read_pct", 50, "percent of ops that are Gets")
	scanPct   = flag.Int("scan_pct", 0, "percent of ops that are Scans (rest after reads+scans are Puts)")
	scanLimit = flag.Int("scan_limit", 10, "pairs per Scan")
	tenants   = flag.Int("tenants", 16, "tenant key prefixes; every key is tenant<t>/key<n>")
	keys      = flag.Int("keys", 1_000_000, "keyspace size per tenant")
	window    = flag.Int("window", 32, "pipelined requests in flight per connection (1 = strict request/response)")
	sync_     = flag.Bool("sync", false, "request durable (fsynced) writes")
	dropN     = flag.Int("drop_tenants", 0, "after the run, drop this many tenants via DeleteRange and verify emptiness")
	seed      = flag.Int64("seed", 1, "workload RNG seed")
	jsonPath  = flag.String("json", "", "write a machine-readable result file to this path")
	obsURL    = flag.String("obs", "", "dbserver observability base URL (e.g. http://127.0.0.1:6381); polls /metrics during the run and reports server-side commit latency vs client-observed write latency")
	obsPoll   = flag.Duration("obs_poll", time.Second, "poll interval for -obs")
)

type jsonReport struct {
	Addr       string `json:"addr"`
	Conns      int    `json:"conns"`
	Window     int    `json:"window"`
	Ops        int64  `json:"ops"`
	ValueSize  int    `json:"value_size"`
	ReadPct    int    `json:"read_pct"`
	ScanPct    int    `json:"scan_pct"`
	Tenants    int    `json:"tenants"`
	Sync       bool   `json:"sync"`
	Seed       int64  `json:"seed"`
	GoVersion  string `json:"go_version"`
	DurationNS int64  `json:"duration_ns"`

	KOpsPerSec float64              `json:"kops_per_sec"`
	Reads      *harness.LatencyJSON `json:"reads,omitempty"`
	Writes     *harness.LatencyJSON `json:"writes,omitempty"`
	Scans      *harness.LatencyJSON `json:"scans,omitempty"`
	NotFound   int64                `json:"not_found"`
	Errors     int64                `json:"errors"`

	DroppedTenants   int     `json:"dropped_tenants,omitempty"`
	DropMillis       float64 `json:"drop_ms,omitempty"`
	SurvivorsScanned int     `json:"survivors_scanned,omitempty"`

	// ServerLatency compares the server's own commit-latency histogram
	// (scraped from -obs /metrics during the run) against the
	// client-observed write latency; the delta is the network + framing +
	// server queueing overhead the engine never sees.
	ServerLatency *jsonServerLatency `json:"server_latency,omitempty"`

	ServerStats json.RawMessage `json:"server_stats,omitempty"`
}

// jsonServerLatency is the -obs scrape summary. Server percentiles are
// bucket upper bounds from the Prometheus histogram delta over the run, so
// they are conservative (the true value is at most the reported one).
type jsonServerLatency struct {
	Polls                   int     `json:"polls"`
	ServerCommits           int64   `json:"server_commits"`
	ServerCommitMeanMicros  float64 `json:"server_commit_mean_us"`
	ServerCommitP50Micros   float64 `json:"server_commit_p50_us"`
	ServerCommitP99Micros   float64 `json:"server_commit_p99_us"`
	ClientWriteMeanMicros   float64 `json:"client_write_mean_us"`
	ClientMinusServerMicros float64 `json:"client_minus_server_mean_us"`
}

// promSample is one scrape of the server's commit-wait histogram from the
// -obs /metrics endpoint: cumulative buckets keyed by their le bound in
// seconds (+Inf keyed as math.Inf(1)), plus the running sum and count.
type promSample struct {
	sum     float64
	count   int64
	buckets map[float64]int64
}

func scrapeCommitWait(url string) (promSample, error) {
	resp, err := http.Get(url)
	if err != nil {
		return promSample{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return promSample{}, fmt.Errorf("%s: %s", url, resp.Status)
	}
	s := promSample{buckets: make(map[float64]int64)}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pebblesdb_commit_wait_seconds_sum "):
			s.sum, _ = strconv.ParseFloat(strings.TrimPrefix(line, "pebblesdb_commit_wait_seconds_sum "), 64)
		case strings.HasPrefix(line, "pebblesdb_commit_wait_seconds_count "):
			v, _ := strconv.ParseFloat(strings.TrimPrefix(line, "pebblesdb_commit_wait_seconds_count "), 64)
			s.count = int64(v)
		case strings.HasPrefix(line, `pebblesdb_commit_wait_seconds_bucket{le="`):
			rest := strings.TrimPrefix(line, `pebblesdb_commit_wait_seconds_bucket{le="`)
			i := strings.Index(rest, `"} `)
			if i < 0 {
				continue
			}
			le := math.Inf(1)
			if rest[:i] != "+Inf" {
				le, _ = strconv.ParseFloat(rest[:i], 64)
			}
			v, _ := strconv.ParseFloat(rest[i+3:], 64)
			s.buckets[le] = int64(v)
		}
	}
	return s, sc.Err()
}

// pollMetrics scrapes url immediately, then every `every` until stop is
// closed, then once more so the final sample covers the whole run. The
// collected samples arrive on the returned channel after the final scrape.
func pollMetrics(url string, every time.Duration, stop <-chan struct{}) <-chan []promSample {
	out := make(chan []promSample, 1)
	go func() {
		var samples []promSample
		scrape := func() {
			if s, err := scrapeCommitWait(url); err == nil {
				samples = append(samples, s)
			} else {
				fmt.Fprintf(os.Stderr, "obs poll: %v\n", err)
			}
		}
		scrape()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				scrape()
				out <- samples
				return
			case <-t.C:
				scrape()
			}
		}
	}()
	return out
}

// serverLatencySummary reduces the scrape series to the run-window delta:
// commits the server retired between the first and last sample, their mean
// wait, and histogram-derived p50/p99 (bucket upper bounds). The client
// write mean minus the server commit mean is the overhead added outside the
// engine: framing, network, and server-side queueing.
func serverLatencySummary(samples []promSample, clientWrites *harness.LatencyJSON) *jsonServerLatency {
	if len(samples) < 2 {
		return nil
	}
	a, b := samples[0], samples[len(samples)-1]
	n := b.count - a.count
	if n <= 0 {
		return nil
	}
	les := make([]float64, 0, len(b.buckets))
	for le := range b.buckets {
		les = append(les, le)
	}
	sort.Float64s(les)
	pct := func(q float64) float64 {
		target := int64(math.Ceil(q * float64(n)))
		lastFinite := 0.0
		for _, le := range les {
			if !math.IsInf(le, 1) {
				lastFinite = le
			}
			if b.buckets[le]-a.buckets[le] >= target {
				if math.IsInf(le, 1) {
					break // landed in the overflow bucket: report the largest bound
				}
				return le * 1e6
			}
		}
		return lastFinite * 1e6
	}
	out := &jsonServerLatency{
		Polls:                  len(samples),
		ServerCommits:          n,
		ServerCommitMeanMicros: (b.sum - a.sum) / float64(n) * 1e6,
		ServerCommitP50Micros:  pct(0.50),
		ServerCommitP99Micros:  pct(0.99),
	}
	if clientWrites != nil {
		out.ClientWriteMeanMicros = clientWrites.MeanMicros
		out.ClientMinusServerMicros = clientWrites.MeanMicros - out.ServerCommitMeanMicros
	}
	return out
}

// opKind tags an in-flight request so its response lands in the right
// recorder. Responses arrive in send order, so a FIFO of (kind, start
// time) per connection matches each response to its request.
type opKind byte

const (
	kindWrite opKind = iota
	kindRead
	kindScan
)

type inflight struct {
	kind  opKind
	start time.Time
}

type counters struct {
	notFound int64
	errors   int64
}

// worker drives one connection: keep up to `window` requests in flight,
// record each response's latency against its send time. The pipelining is
// what lets one connection hold a run of writes for the server's
// accumulator to batch.
func worker(th, perConn int, readCut, scanCut float64, reads, writes, scans *harness.LatencyRecorder, ctr *counters) error {
	c, err := server.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(*seed + int64(th)*7919))
	vals := harness.NewValueSource(*valueSize, harness.CompressibleFraction, *seed+int64(th))
	var flags byte
	if *sync_ {
		flags = server.FlagSync
	}
	fifo := make([]inflight, 0, *window)
	key := make([]byte, 0, 64)

	recvOne := func() error {
		resp, err := c.Recv()
		if err != nil {
			return err
		}
		f := fifo[0]
		fifo = fifo[:copy(fifo, fifo[1:])]
		d := time.Since(f.start)
		switch f.kind {
		case kindRead:
			reads.Record(d)
			if resp.Status == server.StatusNotFound {
				ctr.notFound++
			}
		case kindScan:
			scans.Record(d)
		default:
			writes.Record(d)
		}
		if resp.Status == server.StatusErr {
			ctr.errors++
		}
		return nil
	}

	for sent := 0; sent < perConn || len(fifo) > 0; {
		for sent < perConn && len(fifo) < *window {
			ten := rng.Intn(*tenants)
			n := rng.Intn(*keys)
			key = fmt.Appendf(key[:0], "tenant%04d/key%09d", ten, n)
			r := rng.Float64()
			var kind opKind
			var err error
			switch {
			case r < readCut:
				kind = kindRead
				err = c.SendGet(key)
			case r < readCut+scanCut:
				kind = kindScan
				end := fmt.Appendf(nil, "tenant%04d/key%09d", ten, n+*scanLimit*2)
				err = c.SendScan(key, end, uint32(*scanLimit))
			default:
				kind = kindWrite
				err = c.SendPut(key, vals.Next(), flags)
			}
			if err != nil {
				return err
			}
			fifo = append(fifo, inflight{kind, time.Now()})
			sent++
		}
		if err := c.Flush(); err != nil {
			return err
		}
		// Drain the whole window before refilling: burst pipelining. With
		// -window=1 this degenerates to request/response ping-pong.
		for len(fifo) > 0 {
			if err := recvOne(); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropTenants deletes n whole tenants, one DeleteRange frame each (the
// server broadcasts it as one O(1) range tombstone per shard), then
// verifies over the wire that no key survived anywhere.
func dropTenants(n int) (time.Duration, int, error) {
	c, err := server.Dial(*addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	start := time.Now()
	for t := 0; t < n; t++ {
		lo := fmt.Appendf(nil, "tenant%04d/", t)
		hi := fmt.Appendf(nil, "tenant%04d0", t) // '0' sorts right after '/'
		if err := c.DeleteRange(lo, hi, 0); err != nil {
			return 0, 0, fmt.Errorf("drop tenant %d: %w", t, err)
		}
	}
	elapsed := time.Since(start)
	for t := 0; t < n; t++ {
		lo := fmt.Appendf(nil, "tenant%04d/", t)
		hi := fmt.Appendf(nil, "tenant%04d0", t)
		pairs, err := c.Scan(lo, hi, 100)
		if err != nil {
			return 0, 0, fmt.Errorf("verify tenant %d: %w", t, err)
		}
		if len(pairs) > 0 {
			return 0, 0, fmt.Errorf("tenant %d: %d keys survived DeleteRange", t, len(pairs))
		}
	}
	// A survivor tenant must still answer, or the drop proved the wrong
	// thing.
	survivors := 0
	if n < *tenants {
		lo := fmt.Appendf(nil, "tenant%04d/", n)
		hi := fmt.Appendf(nil, "tenant%04d0", n)
		pairs, err := c.Scan(lo, hi, 100)
		if err != nil {
			return 0, 0, err
		}
		survivors = len(pairs)
	}
	return elapsed, survivors, nil
}

func main() {
	flag.Parse()
	if *readPct+*scanPct > 100 {
		fmt.Fprintln(os.Stderr, "-read_pct + -scan_pct must be <= 100")
		os.Exit(2)
	}
	if *conns < 1 || *window < 1 || *tenants < 1 {
		fmt.Fprintln(os.Stderr, "-conns, -window and -tenants must be >= 1")
		os.Exit(2)
	}
	readCut := float64(*readPct) / 100
	scanCut := float64(*scanPct) / 100

	var reads, writes, scans harness.LatencyRecorder
	perConn := *ops / *conns
	ctrs := make([]counters, *conns)
	errs := make([]error, *conns)
	var obsCh <-chan []promSample
	var obsStop chan struct{}
	if *obsURL != "" {
		obsStop = make(chan struct{})
		obsCh = pollMetrics(strings.TrimSuffix(*obsURL, "/")+"/metrics", *obsPoll, obsStop)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for th := 0; th < *conns; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			errs[th] = worker(th, perConn, readCut, scanCut, &reads, &writes, &scans, &ctrs[th])
		}(th)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var obsSamples []promSample
	if obsCh != nil {
		close(obsStop)
		obsSamples = <-obsCh
	}
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: %v\n", err)
			os.Exit(1)
		}
	}

	total := reads.Count() + writes.Count() + scans.Count()
	rep := jsonReport{
		Addr:       *addr,
		Conns:      *conns,
		Window:     *window,
		Ops:        total,
		ValueSize:  *valueSize,
		ReadPct:    *readPct,
		ScanPct:    *scanPct,
		Tenants:    *tenants,
		Sync:       *sync_,
		Seed:       *seed,
		GoVersion:  runtime.Version(),
		DurationNS: elapsed.Nanoseconds(),
		KOpsPerSec: float64(total) / elapsed.Seconds() / 1e3,
		Reads:      reads.JSON(),
		Writes:     writes.JSON(),
		Scans:      scans.JSON(),
	}
	for _, c := range ctrs {
		rep.NotFound += c.notFound
		rep.Errors += c.errors
	}
	rep.ServerLatency = serverLatencySummary(obsSamples, rep.Writes)

	if *dropN > 0 {
		d, survivors, err := dropTenants(*dropN)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tenant drop: %v\n", err)
			os.Exit(1)
		}
		rep.DroppedTenants = *dropN
		rep.DropMillis = float64(d.Nanoseconds()) / 1e6
		rep.SurvivorsScanned = survivors
	}

	if c, err := server.Dial(*addr); err == nil {
		if raw, err := c.Stats(); err == nil {
			rep.ServerStats = json.RawMessage(append([]byte(nil), raw...))
		}
		c.Close()
	}

	fmt.Printf("dbloadgen: %d ops over %d conns (window %d) in %.2fs = %.1f KOps/s\n",
		total, *conns, *window, elapsed.Seconds(), rep.KOpsPerSec)
	class := func(name string, l *harness.LatencyJSON) {
		if l == nil {
			return
		}
		fmt.Printf("  %-6s %9d ops  mean %7.1fus  p50 %7.1fus  p99 %8.1fus  p999 %8.1fus\n",
			name, l.Ops, l.MeanMicros, l.P50Micros, l.P99Micros, l.P999Micros)
	}
	class("reads", rep.Reads)
	class("writes", rep.Writes)
	class("scans", rep.Scans)
	if rep.NotFound > 0 {
		fmt.Printf("  not-found reads: %d\n", rep.NotFound)
	}
	if rep.Errors > 0 {
		fmt.Printf("  ERROR responses: %d\n", rep.Errors)
	}
	if rep.DroppedTenants > 0 {
		fmt.Printf("  dropped %d tenants in %.1fms (verified empty; survivor scan saw %d keys)\n",
			rep.DroppedTenants, rep.DropMillis, rep.SurvivorsScanned)
	}
	if sl := rep.ServerLatency; sl != nil {
		fmt.Printf("  server: %d commits  mean %.1fus  p50 <=%.1fus  p99 <=%.1fus  (%d polls)\n",
			sl.ServerCommits, sl.ServerCommitMeanMicros, sl.ServerCommitP50Micros, sl.ServerCommitP99Micros, sl.Polls)
		fmt.Printf("  client-server write delta: %.1fus (client mean %.1fus - server commit mean %.1fus)\n",
			sl.ClientMinusServerMicros, sl.ClientWriteMeanMicros, sl.ServerCommitMeanMicros)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write -json: %v\n", err)
			os.Exit(1)
		}
	}
}

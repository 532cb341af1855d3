// Command dbserver serves the store over TCP: one process, M shard
// engines, keys routed to shards by consistent hashing. Each connection's
// writes accumulate into per-shard batches that feed the shards'
// group-commit pipelines; a tenant's whole keyspace drops with one
// DeleteRange frame. cmd/dbloadgen is the matching load generator.
//
// Example:
//
//	dbserver -addr=127.0.0.1:6380 -shards=4 -dir=/data/db -mem=4GiB
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"pebblesdb"
	"pebblesdb/internal/harness"
	"pebblesdb/internal/server"
	"pebblesdb/internal/vfs"
)

var (
	addr   = flag.String("addr", "127.0.0.1:6380", "listen address")
	shards = flag.Int("shards", 4, "shard engine count (fixed for the life of a data directory)")
	dir    = flag.String("dir", "", "data directory root, one subdirectory per shard; empty = in-memory")
	store  = flag.String("store", "pebblesdb", "store preset: pebblesdb, hyperleveldb, leveldb, rocksdb, pebblesdb1")
	mem    = flag.String("mem", "1GiB", "process memory target split across shards; Options.Tuned scales caches and write buffers from it (0 = preset defaults)")
	accum  = flag.Int("accum", 0, "per-connection write accumulation cap in bytes (0 = default)")
	drain  = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout before connections are force-closed")
	quiet  = flag.Bool("quiet", false, "suppress startup and connection logs")
	obsFl  = flag.String("obs", "", "observability HTTP address (e.g. 127.0.0.1:6381): Prometheus /metrics, /debug/events flight recorders, /debug/metrics, /debug/pprof; empty = disabled")
	slowOp = flag.Duration("slowop", 0, "log RPCs and commits slower than this threshold with a stage breakdown (0 = disabled)")
)

func main() {
	flag.Parse()
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	preset, ok := harness.PresetByName(*store)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown store %q\n", *store)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "-shards must be >= 1")
		os.Exit(2)
	}
	memBytes, err := harness.ParseBytes(*mem)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -mem: %v\n", err)
		os.Exit(2)
	}

	dbs := make([]*pebblesdb.DB, *shards)
	for i := range dbs {
		o := preset.Options()
		o.Logger = logf
		o.SlowOpThreshold = *slowOp
		if memBytes > 0 {
			// The memory target is per process; each shard gets an equal
			// slice, and Tuned scales its caches and write buffers from it.
			o.Tuned(memBytes / int64(*shards))
		}
		var name string
		if *dir == "" {
			o.WithFS(vfs.NewMem())
			name = fmt.Sprintf("shard-%02d", i)
		} else {
			name = filepath.Join(*dir, fmt.Sprintf("shard-%02d", i))
			if err := os.MkdirAll(name, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "mkdir %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		db, err := pebblesdb.Open(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "open shard %d: %v\n", i, err)
			os.Exit(1)
		}
		dbs[i] = db
	}

	srv := server.New(dbs, &server.Options{
		AccumBytes:      *accum,
		Logf:            logf,
		SlowOpThreshold: *slowOp,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	logf("dbserver: %d %s shards on %s (mem target %s)", *shards, preset.String(), ln.Addr(), *mem)

	var obsSrv *http.Server
	if *obsFl != "" {
		obsLn, err := net.Listen("tcp", *obsFl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "listen obs %s: %v\n", *obsFl, err)
			os.Exit(1)
		}
		obsSrv = &http.Server{Handler: srv.DebugHandler()}
		go func() {
			if err := obsSrv.Serve(obsLn); err != nil && err != http.ErrServerClosed {
				logf("dbserver: obs server: %v", err)
			}
		}()
		logf("dbserver: observability on http://%s/metrics (/debug/events, /debug/metrics, /debug/pprof)", obsLn.Addr())
	}

	// SIGINT/SIGTERM drains gracefully: stop accepting, let in-flight
	// requests finish and their responses flush (Shutdown force-closes
	// stragglers after the -drain timeout), then close each shard
	// (DB.Close itself waits out reads that raced the drain).
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case sig := <-sigCh:
		logf("dbserver: %v, draining (timeout %v)", sig, *drain)
	case err := <-errCh:
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		}
	}
	st := srv.Stats()
	if obsSrv != nil {
		obsSrv.Close()
	}
	if err := srv.Shutdown(*drain); err != nil {
		logf("dbserver: %v", err)
	}
	for i, db := range dbs {
		if err := db.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close shard %d: %v\n", i, err)
		}
	}
	logf("dbserver: served %d requests over %d connections in %.1fs (write amp %.2f)",
		st.Requests, st.TotalConns, st.UptimeSecs, st.WriteAmplification)
}

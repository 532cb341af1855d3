package pebblesdb

import (
	"bytes"
	"fmt"
	"log"
	"strings"
	"sync"
	"testing"
	"time"

	"pebblesdb/internal/vfs"
)

// lockedBuffer collects log lines written from engine goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestDegradationReachesLogger: a store opened through Open whose flush
// fails past its retries writes the degraded-to-read-only line and the
// flight-recorder dump through Options.Logger — the engine reads the very
// Config the caller filled in, so the logger cannot be lost on the way.
func TestDegradationReachesLogger(t *testing.T) {
	var logged lockedBuffer
	efs := vfs.NewErr(vfs.NewMem())
	o := testOptions(PresetPebblesDB)
	o.WithFS(efs)
	o.MaxBgRetries = 1
	o.BgRetryDelay = time.Millisecond
	o.Logger = func(format string, args ...interface{}) {
		fmt.Fprintf(&logged, format+"\n", args...)
	}
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The first create is the foreground WAL rotation; every later one (the
	// flush's table file, and its retry's) fails.
	efs.FailAt(efs.OpCount()+1, vfs.OpCreate, nil, true)
	if err := db.Flush(); err == nil {
		t.Fatal("flush over a failing filesystem succeeded")
	}
	if !db.ReadOnly() {
		t.Fatal("store did not degrade to read-only after the flush failure")
	}
	out := logged.String()
	for _, want := range []string{
		"engine: degraded to read-only",
		"obs: flight recorder dump",
		"background-error",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("logger never saw %q; it received:\n%s", want, out)
		}
	}
}

// TestSlowOpDefaultLogger: SlowOpThreshold without a Logger logs through
// the standard library logger, as the Logger doc says a nil one does.
func TestSlowOpDefaultLogger(t *testing.T) {
	var logged lockedBuffer
	prev := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(prev)

	o := testOptions(PresetPebblesDB)
	o.SlowOpThreshold = time.Nanosecond
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if out := logged.String(); !strings.Contains(out, "slow commit") {
		t.Fatalf("standard logger received no slow-commit line:\n%s", out)
	}
}

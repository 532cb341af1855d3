package vfs

import (
	"strings"
	"sync/atomic"
)

// IOCategory classifies IO by the kind of file it touched, so experiments
// can report write amplification per source (the paper's Figure 1.1 counts
// all write IO: sstables, logs, and manifests).
type IOCategory int

// The label lists in IOStats' tags name the categories in this order.
const (
	// CatTable is sstable IO.
	CatTable IOCategory = iota
	// CatLog is write-ahead-log IO.
	CatLog
	// CatManifest is MANIFEST/CURRENT IO.
	CatManifest
	// CatOther is everything else.
	CatOther
	numCategories
)

func categorize(name string) IOCategory {
	switch {
	case strings.HasSuffix(name, ".sst"), strings.HasSuffix(name, ".tmp"):
		return CatTable
	case strings.HasSuffix(name, ".log"):
		return CatLog
	case strings.Contains(name, "MANIFEST"), strings.HasSuffix(name, "CURRENT"):
		return CatManifest
	}
	return CatOther
}

// IOStats is a snapshot of byte counters taken from a CountingFS.
type IOStats struct {
	BytesWritten [numCategories]int64 `metric:"pebblesdb_io_written_bytes_total" label:"category=table,log,manifest,other" help:"Bytes written per file category."`
	BytesRead    [numCategories]int64 `metric:"pebblesdb_io_read_bytes_total" label:"category=table,log,manifest,other" help:"Bytes read per file category."`
}

// TotalWritten is the sum of bytes written across all categories.
func (s IOStats) TotalWritten() int64 {
	var t int64
	for _, v := range s.BytesWritten {
		t += v
	}
	return t
}

// TotalRead is the sum of bytes read across all categories.
func (s IOStats) TotalRead() int64 {
	var t int64
	for _, v := range s.BytesRead {
		t += v
	}
	return t
}

// Sub returns s - o, counter-wise; used to measure an interval.
func (s IOStats) Sub(o IOStats) IOStats {
	var r IOStats
	for i := 0; i < int(numCategories); i++ {
		r.BytesWritten[i] = s.BytesWritten[i] - o.BytesWritten[i]
		r.BytesRead[i] = s.BytesRead[i] - o.BytesRead[i]
	}
	return r
}

// CountingFS wraps another FS and counts every byte read and written,
// classified by file kind. It is the measurement instrument behind all
// write-amplification numbers in EXPERIMENTS.md.
type CountingFS struct {
	interposer
	bytesWritten [numCategories]atomic.Int64
	bytesRead    [numCategories]atomic.Int64
}

// NewCounting wraps fs with byte accounting.
func NewCounting(fs FS) *CountingFS {
	c := &CountingFS{}
	c.interposer = interposer{inner: fs, moved: func(op Op, cat IOCategory, n int) {
		if op == OpWrite {
			c.bytesWritten[cat].Add(int64(n))
		} else {
			c.bytesRead[cat].Add(int64(n))
		}
	}}
	return c
}

// Stats returns a snapshot of the counters.
func (c *CountingFS) Stats() IOStats {
	var s IOStats
	for i := 0; i < int(numCategories); i++ {
		s.BytesWritten[i] = c.bytesWritten[i].Load()
		s.BytesRead[i] = c.bytesRead[i].Load()
	}
	return s
}

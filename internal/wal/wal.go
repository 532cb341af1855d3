// Package wal implements the write-ahead log in the LevelDB record format:
// 32 KB blocks of chunks, each chunk carrying a masked CRC-32C, a length,
// and a type (full / first / middle / last) so that records spanning blocks
// are reassembled and torn tails are detected. The MANIFEST uses the same
// format (§4.3.1: PebblesDB persists guard metadata in the MANIFEST, which
// reuses the battle-tested LevelDB log machinery).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pebblesdb/internal/crc"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/vfs"
)

// BlockSize is the log block size in bytes.
const BlockSize = 32 * 1024

const headerSize = 7 // crc:4, length:2, type:1

const (
	chunkFull   = 1
	chunkFirst  = 2
	chunkMiddle = 3
	chunkLast   = 4
)

// ErrCorrupt indicates a record that failed CRC or framing checks. Readers
// treat it as end-of-log for the tail record (torn write) but surface it
// for earlier records.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrWriterClosed is returned by SyncWait on a closed Writer.
var ErrWriterClosed = errors.New("wal: writer is closed")

// DefaultSyncStallThreshold is the fsync duration above which a Writer
// with a Listener reports an EventWALSyncStall. Healthy fsyncs are
// hundreds of microseconds to a few milliseconds; 20ms is a device or
// queueing anomaly worth a trace entry.
const DefaultSyncStallThreshold = 20 * time.Millisecond

// Writer appends length-prefixed records to a log file. AddRecord callers
// must serialize among themselves (the engine's commit leader does); the
// sync-request queue (SyncWait) may run concurrently with appends.
type Writer struct {
	f           vfs.File
	blockOffset int
	buf         [headerSize]byte
	// werr is the sticky append error: a failed write may have left a torn
	// chunk mid-file, and any record appended after the tear would be
	// unreadable on replay (the reader treats the tear as end-of-log). Once
	// an append fails, every later AddRecord reports the failure instead of
	// silently writing records recovery can never see. Touched only by
	// AddRecord callers, which serialize among themselves.
	werr error

	// SyncCounter, when non-nil, is incremented once per physical fsync;
	// the engine points it at its syncs-per-commit metric. Set it before
	// the first SyncWait.
	SyncCounter *int64

	// Listener, when non-nil, receives an EventWALSyncStall for every
	// physical fsync slower than SyncStallThreshold. Set it (like
	// SyncCounter) before the first SyncWait.
	Listener obs.Listener
	// SyncStallThreshold is the fsync duration at which a sync-stall
	// event fires; zero selects DefaultSyncStallThreshold.
	SyncStallThreshold time.Duration

	// The sync-request queue, generation-style: each completed fsync
	// round increments syncGen, and a caller is satisfied by any round
	// that *started* at or after its request. Whoever finds no round in
	// flight leads exactly one round and then hands off, so one fsync
	// satisfies every commit whose record reached the log before it while
	// no single caller is captured doing fsyncs for later arrivals.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncGen  uint64
	syncErr  error
	syncing  bool
	refs     int
	closed   bool
}

// NewWriter returns a Writer appending to f, which must be empty or have
// been written only by a Writer whose final block offset is known to be 0.
func NewWriter(f vfs.File) *Writer {
	w := &Writer{f: f}
	w.syncCond = sync.NewCond(&w.syncMu)
	return w
}

// AddRecord appends one record. After any append failure the Writer is
// poisoned: every subsequent AddRecord returns the original error (see
// werr). The caller rotates to a fresh log to resume.
func (w *Writer) AddRecord(p []byte) error {
	if w.werr != nil {
		return w.werr
	}
	begin := true
	for {
		leftover := BlockSize - w.blockOffset
		if leftover < headerSize {
			// Pad the block tail with zeros.
			if leftover > 0 {
				var zeros [headerSize]byte
				if _, err := w.f.Write(zeros[:leftover]); err != nil {
					w.werr = err
					return err
				}
			}
			w.blockOffset = 0
			leftover = BlockSize
		}
		avail := leftover - headerSize
		frag := p
		if len(frag) > avail {
			frag = frag[:avail]
		}
		end := len(frag) == len(p)

		var typ byte
		switch {
		case begin && end:
			typ = chunkFull
		case begin:
			typ = chunkFirst
		case end:
			typ = chunkLast
		default:
			typ = chunkMiddle
		}
		if err := w.emit(typ, frag); err != nil {
			w.werr = err
			return err
		}
		p = p[len(frag):]
		begin = false
		if end {
			return nil
		}
	}
}

func (w *Writer) emit(typ byte, frag []byte) error {
	c := crc.ValueExtended([]byte{typ}, frag)
	binary.LittleEndian.PutUint32(w.buf[0:4], c)
	binary.LittleEndian.PutUint16(w.buf[4:6], uint16(len(frag)))
	w.buf[6] = typ
	if _, err := w.f.Write(w.buf[:]); err != nil {
		return err
	}
	if _, err := w.f.Write(frag); err != nil {
		return err
	}
	w.blockOffset += headerSize + len(frag)
	return nil
}

// Sync flushes the log to durable storage immediately, bypassing the
// sync-request queue. Use SyncWait on the commit path.
func (w *Writer) Sync() error { return w.f.Sync() }

// SyncWait makes every record appended before the call durable, sharing
// fsyncs with concurrent callers: all requests outstanding when a round
// starts are satisfied by that one fsync. An in-flight round may have
// started before this call's records hit the log, so such a caller waits
// for the round after it. Leadership rotates per round, so no caller is
// held beyond the first round that covers it.
func (w *Writer) SyncWait() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.closed {
		return ErrWriterClosed
	}
	target := w.syncGen + 1
	if w.syncing {
		target++
	}
	for w.syncGen < target {
		if w.closed {
			return ErrWriterClosed
		}
		if !w.syncing {
			// Lead one round for everyone currently waiting.
			w.syncing = true
			w.syncMu.Unlock()
			start := time.Now()
			err := w.f.Sync()
			if w.SyncCounter != nil {
				atomic.AddInt64(w.SyncCounter, 1)
			}
			if w.Listener != nil {
				th := w.SyncStallThreshold
				if th == 0 {
					th = DefaultSyncStallThreshold
				}
				if d := time.Since(start); d >= th {
					w.Listener.Notify(obs.Event{
						Kind: obs.EventWALSyncStall, Nanos: obs.Monotonic(),
						Level: -1, Dur: d, Err: err, Detail: "fsync",
					})
				}
			}
			w.syncMu.Lock()
			w.syncing = false
			w.syncGen++
			// Sticky: once an fsync fails, records covered by that round
			// may never have reached storage even if a later round
			// succeeds, so every subsequent SyncWait reports the failure.
			if err != nil && w.syncErr == nil {
				w.syncErr = err
			}
			w.syncCond.Broadcast()
		} else {
			w.syncCond.Wait()
		}
	}
	return w.syncErr
}

// Ref pins the Writer against Close. The engine's commit leader takes a
// reference (under the commit lock) before it releases the lock and later
// calls SyncWait, so a WAL rotation cannot close the file out from under a
// pending sync.
func (w *Writer) Ref() {
	w.syncMu.Lock()
	w.refs++
	w.syncMu.Unlock()
}

// Unref releases a Ref.
func (w *Writer) Unref() {
	w.syncMu.Lock()
	w.refs--
	if w.refs == 0 {
		w.syncCond.Broadcast()
	}
	w.syncMu.Unlock()
}

// Close closes the underlying file after draining references and pending
// sync rounds.
func (w *Writer) Close() error {
	w.syncMu.Lock()
	for w.syncing || w.refs > 0 {
		w.syncCond.Wait()
	}
	w.closed = true
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	return w.f.Close()
}

// Reader decodes records from a log file image.
type Reader struct {
	data []byte
	off  int
	rec  []byte
}

// NewReader reads the whole file (of the given size) and returns a Reader
// over it. Log files are bounded by the memtable size, so slurping is fine.
func NewReader(f vfs.File, size int64) (*Reader, error) {
	data := make([]byte, size)
	if size > 0 {
		n, err := f.ReadAt(data, 0)
		if err != nil && err != io.EOF {
			return nil, err
		}
		data = data[:n]
	}
	return &Reader{data: data}, nil
}

// NewReaderBytes returns a Reader over an in-memory log image.
func NewReaderBytes(data []byte) *Reader { return &Reader{data: data} }

// Next returns the next record, or io.EOF at the end of the log. A torn or
// corrupt tail terminates the log with io.EOF (standard recovery
// semantics); corruption followed by more valid data returns ErrCorrupt.
func (r *Reader) Next() ([]byte, error) {
	r.rec = r.rec[:0]
	inFragmented := false
	for {
		blockLeft := BlockSize - r.off%BlockSize
		if blockLeft < headerSize {
			r.off += blockLeft // skip block padding
		}
		if r.off+headerSize > len(r.data) {
			return nil, io.EOF
		}
		hdr := r.data[r.off : r.off+headerSize]
		wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
		length := int(binary.LittleEndian.Uint16(hdr[4:6]))
		typ := hdr[6]
		if typ == 0 && wantCRC == 0 && length == 0 {
			return nil, io.EOF // zero padding / preallocated tail
		}
		if r.off+headerSize+length > len(r.data) {
			return nil, io.EOF // torn tail
		}
		frag := r.data[r.off+headerSize : r.off+headerSize+length]
		if crc.ValueExtended([]byte{typ}, frag) != wantCRC {
			return nil, io.EOF // torn or corrupt tail record
		}
		r.off += headerSize + length

		switch typ {
		case chunkFull:
			if inFragmented {
				return nil, fmt.Errorf("%w: full chunk inside fragmented record", ErrCorrupt)
			}
			return frag, nil
		case chunkFirst:
			if inFragmented {
				return nil, fmt.Errorf("%w: first chunk inside fragmented record", ErrCorrupt)
			}
			inFragmented = true
			r.rec = append(r.rec, frag...)
		case chunkMiddle:
			if !inFragmented {
				return nil, fmt.Errorf("%w: middle chunk outside fragmented record", ErrCorrupt)
			}
			r.rec = append(r.rec, frag...)
		case chunkLast:
			if !inFragmented {
				return nil, fmt.Errorf("%w: last chunk outside fragmented record", ErrCorrupt)
			}
			return append(r.rec, frag...), nil
		default:
			return nil, fmt.Errorf("%w: unknown chunk type %d", ErrCorrupt, typ)
		}
	}
}

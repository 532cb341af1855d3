package vfs

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrInjected is the default error returned by an armed injection point.
var ErrInjected = errors.New("errfs: injected error")

// ErrNoSpace simulates ENOSPC while SetFull(true) is in effect.
var ErrNoSpace = errors.New("errfs: no space left on device")

// ErrFS wraps another FS and injects deterministic failures. Two modes
// compose:
//
//   - FailAt(n, mask, err, sticky): the first mask-matching operation whose
//     global operation index is >= n fails with err; sticky keeps every
//     later matching operation failing too (a dead device), otherwise the
//     fault fires once (a transient hiccup).
//   - SetFull(true): every space-allocating operation (OpWriteClass) fails
//     with ErrNoSpace until SetFull(false) — a full disk that an operator
//     later clears.
//
// Every operation (FS-level and File-level) increments one global counter,
// so a workload can be run once against a healthy ErrFS to learn its
// operation count and then re-run with each index armed in turn — the
// metamorphic fault sweep; Close alone is uncounted and never fails. ErrFS
// is the interposer with inject as its before-hook, so it composes with the
// others (it can wrap or be wrapped by FencedFS and CountingFS, over a
// MemFS that is later crashed).
type ErrFS struct {
	interposer

	ops      atomic.Int64 // operations observed so far (also the next index)
	injected atomic.Int64
	full     atomic.Bool

	mu     sync.Mutex
	armed  bool
	armAt  int64
	mask   Op
	err    error
	sticky bool
	fired  bool
}

// NewErr returns an ErrFS over inner with no faults armed.
func NewErr(inner FS) *ErrFS {
	fs := &ErrFS{}
	fs.interposer = interposer{inner: inner, before: fs.inject}
	return fs
}

// FailAt arms the injection point: the first operation matching mask whose
// global index is >= n fails with err (ErrInjected when err is nil). When
// sticky is set, every later matching operation fails too. Re-arming
// replaces any previous configuration.
func (fs *ErrFS) FailAt(n int64, mask Op, err error, sticky bool) {
	if err == nil {
		err = ErrInjected
	}
	fs.mu.Lock()
	fs.armed, fs.armAt, fs.mask, fs.err, fs.sticky, fs.fired = true, n, mask, err, sticky, false
	fs.mu.Unlock()
}

// SetFull toggles ENOSPC mode: while on, every OpWriteClass operation
// fails with ErrNoSpace. Reads, removes and lists keep working.
func (fs *ErrFS) SetFull(on bool) { fs.full.Store(on) }

// Clear disarms FailAt and turns ENOSPC mode off.
func (fs *ErrFS) Clear() {
	fs.full.Store(false)
	fs.mu.Lock()
	fs.armed = false
	fs.mu.Unlock()
}

// OpCount returns the number of operations observed so far.
func (fs *ErrFS) OpCount() int64 { return fs.ops.Load() }

// Injected returns how many operations failed by injection.
func (fs *ErrFS) Injected() int64 { return fs.injected.Load() }

// inject assigns the operation its global index and decides whether it
// fails.
func (fs *ErrFS) inject(op Op) error {
	idx := fs.ops.Add(1) - 1
	if fs.full.Load() && op&OpWriteClass != 0 {
		fs.injected.Add(1)
		return ErrNoSpace
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.armed || op&fs.mask == 0 || idx < fs.armAt {
		return nil
	}
	if fs.fired && !fs.sticky {
		return nil
	}
	fs.fired = true
	fs.injected.Add(1)
	return fs.err
}

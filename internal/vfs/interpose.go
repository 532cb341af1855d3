package vfs

import (
	"errors"
	"sync/atomic"
	"time"
)

// Op classifies filesystem operations for an interposer's hooks. Values are
// bits so a fault injector can target any combination of classes.
type Op uint32

const (
	// OpCreate is FS.Create.
	OpCreate Op = 1 << iota
	// OpOpen is FS.Open.
	OpOpen
	// OpRead is File.ReadAt.
	OpRead
	// OpWrite is File.Write.
	OpWrite
	// OpSync is File.Sync.
	OpSync
	// OpRename is FS.Rename.
	OpRename
	// OpRemove is FS.Remove.
	OpRemove
	// OpMkdir is FS.MkdirAll.
	OpMkdir
	// OpList is FS.List.
	OpList
	// OpStat is FS.Stat.
	OpStat

	// OpAll matches every operation.
	OpAll = OpCreate | OpOpen | OpRead | OpWrite | OpSync | OpRename |
		OpRemove | OpMkdir | OpList | OpStat
	// OpWriteClass matches the operations that allocate storage — the set a
	// full disk fails. Remove and the read-side ops stay working, which is
	// what makes ENOSPC recoverable in place.
	OpWriteClass = OpCreate | OpWrite | OpSync | OpRename | OpMkdir
)

// interposer is the one pass-through filesystem: it forwards every FS and
// File operation to inner, running before ahead of each and moved after
// each read or write. CountingFS, ErrFS and FencedFS embed it and differ
// only in the hooks they install, so a new injector (latency, a crash cut
// at the Nth operation) is a hook, not another copy of the method set.
// Interposers compose in any order with each other and with MemFS.Crash.
type interposer struct {
	inner FS
	// before runs ahead of every operation, on the filesystem and on files
	// opened through it; a non-nil error vetoes the operation and is
	// returned in its place. Close is never hooked: resource release must
	// always be possible, or every failure test would leak handles instead
	// of exercising error paths. Nil means no check.
	before func(op Op) error
	// moved reports the bytes one Write or ReadAt transferred (also when it
	// failed part-way) on a file of category cat. Nil means nobody counts.
	moved func(op Op, cat IOCategory, n int)
}

func (i *interposer) check(op Op) error {
	if i.before == nil {
		return nil
	}
	return i.before(op)
}

func (i *interposer) wrap(op Op, name string, open func(string) (File, error)) (File, error) {
	if err := i.check(op); err != nil {
		return nil, err
	}
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	return &interposedFile{File: f, fs: i, cat: categorize(name)}, nil
}

func (i *interposer) Create(name string) (File, error) {
	return i.wrap(OpCreate, name, i.inner.Create)
}

func (i *interposer) Open(name string) (File, error) {
	return i.wrap(OpOpen, name, i.inner.Open)
}

func (i *interposer) Remove(name string) error {
	if err := i.check(OpRemove); err != nil {
		return err
	}
	return i.inner.Remove(name)
}

func (i *interposer) Rename(oldname, newname string) error {
	if err := i.check(OpRename); err != nil {
		return err
	}
	return i.inner.Rename(oldname, newname)
}

func (i *interposer) MkdirAll(dir string) error {
	if err := i.check(OpMkdir); err != nil {
		return err
	}
	return i.inner.MkdirAll(dir)
}

func (i *interposer) List(dir string) ([]string, error) {
	if err := i.check(OpList); err != nil {
		return nil, err
	}
	return i.inner.List(dir)
}

func (i *interposer) Stat(name string) (int64, error) {
	if err := i.check(OpStat); err != nil {
		return 0, err
	}
	return i.inner.Stat(name)
}

// interposedFile embeds the inner File, so Close passes straight through.
type interposedFile struct {
	File
	fs  *interposer
	cat IOCategory
}

func (f *interposedFile) Write(p []byte) (int, error) {
	if err := f.fs.check(OpWrite); err != nil {
		return 0, err
	}
	n, err := f.File.Write(p)
	if f.fs.moved != nil {
		f.fs.moved(OpWrite, f.cat, n)
	}
	return n, err
}

func (f *interposedFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.check(OpRead); err != nil {
		return 0, err
	}
	n, err := f.File.ReadAt(p, off)
	if f.fs.moved != nil {
		f.fs.moved(OpRead, f.cat, n)
	}
	return n, err
}

func (f *interposedFile) Sync() error {
	if err := f.fs.check(OpSync); err != nil {
		return err
	}
	return f.File.Sync()
}

// ErrFenced is returned by every operation on a fenced filesystem.
var ErrFenced = errors.New("vfs: filesystem fenced (simulated process death)")

// FencedFS wraps an FS so that all IO through it can be cut off at once.
// Crash tests pair it with MemFS.Crash: fencing the old store instance
// models the death of its process (its background goroutines can no longer
// touch storage), and Crash() then discards unsynced data before the next
// instance opens the surviving files directly.
type FencedFS struct {
	interposer
	fenced atomic.Bool
}

// NewFenced wraps fs.
func NewFenced(fs FS) *FencedFS {
	f := &FencedFS{}
	f.interposer = interposer{inner: fs, before: func(Op) error {
		if f.fenced.Load() {
			return ErrFenced
		}
		return nil
	}}
	return f
}

// Fence cuts off all subsequent operations, including those on files
// opened earlier through this wrapper.
func (f *FencedFS) Fence() { f.fenced.Store(true) }

// SlowFS wraps an FS so that the operations of a chosen class each take a
// set time longer: a device whose reads (or syncs) are worth waiting for,
// which MemFS is not. The hook sleeps, so it stacks with the other
// interposers' checks.
type SlowFS struct {
	interposer
	delay atomic.Int64
}

// NewSlow wraps fs with no delay set; SetDelay makes every later operation
// matching mask sleep first.
func NewSlow(fs FS, mask Op) *SlowFS {
	s := &SlowFS{}
	s.interposer = interposer{inner: fs, before: func(op Op) error {
		if d := s.delay.Load(); d > 0 && op&mask != 0 {
			time.Sleep(time.Duration(d))
		}
		return nil
	}}
	return s
}

// SetDelay sets how long each matching operation sleeps from now on.
func (s *SlowFS) SetDelay(d time.Duration) { s.delay.Store(int64(d)) }

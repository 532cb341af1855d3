// Package vfs abstracts the filesystem under the store. The abstraction
// exists for three reasons that the PebblesDB reproduction depends on:
// deterministic in-memory benchmarking (MemFS), byte-exact write-
// amplification accounting (CountingFS), and crash-recovery and fault
// testing (MemFS.Crash, ErrFS, FencedFS). There are three filesystems:
// Default is backed by the OS, MemFS by memory, and the interposer wraps
// either to count, inject or fence.
package vfs

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the handle interface used by the store. Writes are append-only:
// the store never overwrites file contents in place (the LSM/FLSM design
// guarantees this), which keeps every implementation simple.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync makes previously written data durable.
	Sync() error
}

// FS is the filesystem interface. Paths use forward slashes and are
// interpreted relative to the FS root.
type FS interface {
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically renames a file, replacing any existing target.
	Rename(oldname, newname string) error
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(dir string) error
	// List returns the names (not paths) of directory entries, sorted.
	List(dir string) ([]string, error)
	// Stat returns the size in bytes of the named file.
	Stat(name string) (int64, error)
}

// Default is the operating-system filesystem.
var Default FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }

func (osFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Stat(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

type osFile struct{ *os.File }

func (f osFile) Sync() error { return f.File.Sync() }

// Clean normalizes a path for use as a map key in the in-memory
// implementations.
func Clean(p string) string { return filepath.ToSlash(filepath.Clean(p)) }

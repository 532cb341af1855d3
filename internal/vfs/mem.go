package vfs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// MemFS is a thread-safe in-memory filesystem. It is the default substrate
// for tests and benchmarks: deterministic, fast, and free of OS page-cache
// effects so that byte-level IO accounting is exact.
//
// It also simulates power loss: Crash drops what was written but not
// synced, files created but never synced vanish, and a rename is atomic and
// durable once performed (the rename semantics journaling filesystems give
// small metadata operations, which LevelDB-family stores rely on for
// CURRENT updates). Crash-recovery tests drive the store through a
// workload, call Crash, then reopen the store on the surviving state and
// verify the recovered contents against what was durably acknowledged.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool
}

type memNode struct {
	mu     sync.Mutex
	data   []byte
	synced int // bytes known durable; Crash truncates to it
	// everSynced records whether the file survived at least one Sync or
	// Rename; files that never did disappear entirely at Crash, matching
	// directory entries that were never flushed.
	everSynced bool
}

// NewMem returns an empty in-memory filesystem with a root directory.
func NewMem() *MemFS {
	return &MemFS{
		files: make(map[string]*memNode),
		dirs:  map[string]bool{".": true, "/": true},
	}
}

// NewCrash returns an empty filesystem for crash tests. It is NewMem: the
// name says what the caller is about to do with it.
func NewCrash() *MemFS { return NewMem() }

// Crash drops all unsynced state, as if the machine lost power.
func (fs *MemFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, n := range fs.files {
		n.mu.Lock()
		if n.everSynced {
			n.data = n.data[:n.synced]
		} else {
			delete(fs.files, name)
		}
		n.mu.Unlock()
	}
}

func (fs *MemFS) Create(name string) (File, error) {
	name = Clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := &memNode{}
	fs.files[name] = n
	return &memHandle{node: n}, nil
}

func (fs *MemFS) Open(name string) (File, error) {
	name = Clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memHandle{node: n, readonly: true}, nil
}

func (fs *MemFS) Remove(name string) error {
	name = Clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	return nil
}

func (fs *MemFS) Rename(oldname, newname string) error {
	oldname, newname = Clean(oldname), Clean(newname)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	// A rename is treated as durable: LevelDB-family stores sync file
	// contents before renaming into place (CURRENT updates).
	n.mu.Lock()
	n.synced, n.everSynced = len(n.data), true
	n.mu.Unlock()
	delete(fs.files, oldname)
	fs.files[newname] = n
	return nil
}

func (fs *MemFS) MkdirAll(dir string) error {
	dir = Clean(dir)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for dir != "." && dir != "/" && dir != "" {
		fs.dirs[dir] = true
		i := strings.LastIndexByte(dir, '/')
		if i < 0 {
			break
		}
		dir = dir[:i]
	}
	return nil
}

func (fs *MemFS) List(dir string) ([]string, error) {
	dir = Clean(dir)
	prefix := dir + "/"
	if dir == "." || dir == "/" {
		prefix = ""
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	seen := map[string]bool{}
	for name := range fs.files {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		seen[rest] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (fs *MemFS) Stat(name string) (int64, error) {
	name = Clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[name]
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return int64(len(n.data)), nil
}

// TotalBytes reports the sum of all file sizes; used by space-amplification
// experiments.
func (fs *MemFS) TotalBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var total int64
	for _, n := range fs.files {
		n.mu.Lock()
		total += int64(len(n.data))
		n.mu.Unlock()
	}
	return total
}

type memHandle struct {
	node     *memNode
	readonly bool
	closed   bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("vfs: write to closed file")
	}
	if h.readonly {
		return 0, fmt.Errorf("vfs: write to read-only file")
	}
	h.node.mu.Lock()
	h.node.data = append(h.node.data, p...)
	h.node.mu.Unlock()
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("vfs: read from closed file")
	}
	if off < 0 {
		return 0, fmt.Errorf("vfs: read at negative offset %d", off)
	}
	h.node.mu.Lock()
	defer h.node.mu.Unlock()
	if off >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	h.node.mu.Lock()
	h.node.synced, h.node.everSynced = len(h.node.data), true
	h.node.mu.Unlock()
	return nil
}

func (h *memHandle) Close() error {
	h.closed = true
	return nil
}

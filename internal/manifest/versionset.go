package manifest

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"

	"pebblesdb/internal/base"
	"pebblesdb/internal/obs"
	"pebblesdb/internal/vfs"
	"pebblesdb/internal/wal"
)

// rotateThreshold is the MANIFEST size beyond which LogAndApply writes a
// fresh manifest seeded with a full snapshot.
const rotateThreshold = 4 << 20

// VersionSet owns the MANIFEST log and the store-wide watermarks. Tree
// implementations apply decoded edits to their in-memory structures and
// call LogAndApply to persist new edits.
type VersionSet struct {
	fs  vfs.FS
	dir string

	// Listener, when non-nil, receives an EventManifestRotation for every
	// manifest rewrite after the initial install. Set it (like the tree
	// does from its config) before background work begins.
	Listener obs.Listener

	mu            sync.Mutex
	manifestFile  vfs.File
	manifestW     *wal.Writer
	manifestNum   base.FileNum
	manifestBytes int64
	// writeErr records that an append to the live manifest failed. The
	// file's tail may hold a torn record, and the log reader treats a tear
	// as end-of-log — so any record appended after it would be silently
	// invisible to recovery. Once set, the next LogAndApply must rotate to
	// a fresh manifest seeded with a full snapshot; plain appends are
	// refused.
	writeErr bool

	nextFileNum atomic.Uint64 // next unused file number

	// logNum is the WAL from which recovery replays; lastSeq is the
	// persisted sequence watermark. Both are updated via edits under mu.
	logNum  base.FileNum
	lastSeq base.SeqNum
}

// LogNum returns the WAL number recovery must replay from.
func (vs *VersionSet) LogNum() base.FileNum {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.logNum
}

// LastSeq returns the persisted sequence watermark.
func (vs *VersionSet) LastSeq() base.SeqNum {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.lastSeq
}

// Exists reports whether dir contains a store (a CURRENT file).
func Exists(fs vfs.FS, dir string) bool {
	_, err := fs.Stat(filepath.Join(dir, "CURRENT"))
	return err == nil
}

// Create initializes a fresh store in dir with an empty initial manifest.
func Create(fs vfs.FS, dir string) (*VersionSet, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	vs := &VersionSet{fs: fs, dir: dir}
	vs.nextFileNum.Store(2) // 1 is reserved for the first manifest
	if err := vs.installManifestLocked(1, nil, 0, 0); err != nil {
		return nil, err
	}
	return vs, nil
}

// Load recovers a store's metadata from dir, invoking apply for every edit
// in order. The caller rebuilds its in-memory structures inside apply.
func Load(fs vfs.FS, dir string, apply func(*VersionEdit) error) (*VersionSet, error) {
	vs := &VersionSet{fs: fs, dir: dir}

	currentPath := filepath.Join(dir, "CURRENT")
	cf, err := fs.Open(currentPath)
	if err != nil {
		return nil, err
	}
	sz, err := fs.Stat(currentPath)
	if err != nil {
		cf.Close()
		return nil, err
	}
	nameBuf := make([]byte, sz)
	if _, err := cf.ReadAt(nameBuf, 0); err != nil && err != io.EOF {
		cf.Close()
		return nil, err
	}
	cf.Close()
	manifestName := string(nameBuf)
	for len(manifestName) > 0 && manifestName[len(manifestName)-1] == '\n' {
		manifestName = manifestName[:len(manifestName)-1]
	}
	ft, fn, ok := base.ParseFilename(manifestName)
	if !ok || ft != base.FileTypeManifest {
		return nil, fmt.Errorf("manifest: CURRENT names %q, not a manifest", manifestName)
	}
	vs.manifestNum = fn

	mPath := filepath.Join(dir, manifestName)
	mf, err := fs.Open(mPath)
	if err != nil {
		return nil, err
	}
	mSize, err := fs.Stat(mPath)
	if err != nil {
		mf.Close()
		return nil, err
	}
	r, err := wal.NewReader(mf, mSize)
	mf.Close()
	if err != nil {
		return nil, err
	}

	maxFile := uint64(fn)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		var edit VersionEdit
		if err := edit.Decode(rec); err != nil {
			return nil, err
		}
		if edit.LogNum != nil {
			vs.logNum = *edit.LogNum
		}
		if edit.NextFileNum != nil && uint64(*edit.NextFileNum) > maxFile {
			maxFile = uint64(*edit.NextFileNum)
		}
		if edit.LastSeq != nil && *edit.LastSeq > vs.lastSeq {
			vs.lastSeq = *edit.LastSeq
		}
		if err := apply(&edit); err != nil {
			return nil, err
		}
	}
	vs.nextFileNum.Store(maxFile + 1)

	// Continue appending to a fresh manifest: simpler than re-opening the
	// old one mid-block, and it compacts the edit history on every open.
	vs.manifestNum = vs.NewFileNum()
	return vs, nil
}

// StartAppending must be called once after Load, with a snapshot edit
// describing the full recovered state; it opens the new MANIFEST.
func (vs *VersionSet) StartAppending(snapshot *VersionEdit) error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.installManifestLocked(vs.manifestNum, snapshot, vs.logNum, vs.lastSeq)
}

// installManifestLocked writes a new MANIFEST numbered num, seeded with
// snapshot (nil for a fresh store) carrying the newLog/newSeq watermarks,
// syncs it, and atomically points CURRENT at it. The VersionSet's state —
// live manifest handle, watermarks, writeErr — commits only after the
// *entire* sequence succeeds; any failure removes the partial files and
// leaves the previous manifest live and CURRENT untouched, so a failed
// switch can never strand CURRENT pointing at one manifest while edits
// flow to another.
func (vs *VersionSet) installManifestLocked(num base.FileNum, snapshot *VersionEdit, newLog base.FileNum, newSeq base.SeqNum) error {
	name := base.MakeFilename(base.FileTypeManifest, num)
	path := filepath.Join(vs.dir, name)
	fail := func(err error) error {
		vs.writeErr = true
		vs.fs.Remove(path)
		vs.fs.Remove(filepath.Join(vs.dir, base.MakeFilename(base.FileTypeTemp, num)))
		return err
	}
	f, err := vs.fs.Create(path)
	if err != nil {
		vs.writeErr = true
		return err
	}
	w := wal.NewWriter(f)
	var nbytes int64
	if snapshot != nil {
		snapshot.SetNextFileNum(base.FileNum(vs.nextFileNum.Load()))
		snapshot.SetLastSeq(newSeq)
		snapshot.SetLogNum(newLog)
		rec := snapshot.Encode(nil)
		if err := w.AddRecord(rec); err != nil {
			f.Close()
			return fail(err)
		}
		nbytes = int64(len(rec))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fail(err)
	}

	// Point CURRENT at the new manifest via atomic rename.
	tmp := filepath.Join(vs.dir, base.MakeFilename(base.FileTypeTemp, num))
	tf, err := vs.fs.Create(tmp)
	if err != nil {
		f.Close()
		return fail(err)
	}
	if _, err := tf.Write([]byte(name + "\n")); err != nil {
		tf.Close()
		f.Close()
		return fail(err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		f.Close()
		return fail(err)
	}
	tf.Close()
	if err := vs.fs.Rename(tmp, filepath.Join(vs.dir, "CURRENT")); err != nil {
		f.Close()
		return fail(err)
	}

	// Full success: commit the switch.
	if vs.manifestFile != nil {
		vs.manifestFile.Close()
	}
	vs.manifestFile = f
	vs.manifestW = w
	vs.manifestNum = num
	vs.manifestBytes = nbytes
	vs.logNum = newLog
	vs.lastSeq = newSeq
	vs.writeErr = false
	return nil
}

// NewFileNum allocates a fresh file number.
func (vs *VersionSet) NewFileNum() base.FileNum {
	return base.FileNum(vs.nextFileNum.Add(1) - 1)
}

// LogAndApply persists edit. snapshotFn, when non-nil, is consulted if the
// manifest has grown past the rotation threshold: it must return a snapshot
// edit of the full current state (already including edit's changes) to seed
// the replacement manifest. LogAndApply serializes concurrent callers.
func (vs *VersionSet) LogAndApply(edit *VersionEdit, snapshotFn func() *VersionEdit) error {
	vs.mu.Lock()
	defer vs.mu.Unlock()

	edit.SetNextFileNum(base.FileNum(vs.nextFileNum.Load()))
	// Compute the watermarks the edit implies without publishing them: a
	// watermark that advances before the edit persists would let cleanup
	// delete WALs (or trust sequence numbers) the durable manifest state
	// still needs.
	newLog, newSeq := vs.logNum, vs.lastSeq
	if edit.LogNum != nil {
		newLog = *edit.LogNum
	}
	if edit.LastSeq != nil && *edit.LastSeq > newSeq {
		newSeq = *edit.LastSeq
	}

	if (vs.writeErr || vs.manifestBytes >= rotateThreshold) && snapshotFn != nil {
		// Rotation with a full snapshot: the snapshot already reflects the
		// caller's in-memory state including this edit, so it both compacts
		// history and recovers from a torn tail in the old manifest.
		reason := "size"
		if vs.writeErr {
			reason = "write-error"
		}
		num := vs.NewFileNum()
		err := vs.installManifestLocked(num, snapshotFn(), newLog, newSeq)
		if err == nil && vs.Listener != nil {
			vs.Listener.Notify(obs.Event{
				Kind: obs.EventManifestRotation, Nanos: obs.Monotonic(),
				Level: -1, FileNum: uint64(num), Detail: reason,
			})
		}
		return err
	}
	if vs.writeErr {
		return fmt.Errorf("manifest: previous write failed; rotation with snapshot required")
	}

	rec := edit.Encode(nil)
	if err := vs.manifestW.AddRecord(rec); err != nil {
		vs.writeErr = true
		return err
	}
	vs.manifestBytes += int64(len(rec))
	if err := vs.manifestFile.Sync(); err != nil {
		vs.writeErr = true
		return err
	}
	vs.logNum, vs.lastSeq = newLog, newSeq
	return nil
}

// ManifestFileNum returns the live manifest's file number; older manifests
// can be deleted.
func (vs *VersionSet) ManifestFileNum() base.FileNum {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.manifestNum
}

// Close closes the manifest file.
func (vs *VersionSet) Close() error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.manifestFile != nil {
		return vs.manifestFile.Close()
	}
	return nil
}

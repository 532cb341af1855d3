package leveled

import (
	"pebblesdb/internal/base"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/vfs"
)

// layout is the leveled LSM baseline as a treebase.Layout: sorted disjoint
// levels, file-granular compaction units cut by size, and seek budgets per
// table. Every field after cfg is guarded by the core's lock.
type layout struct {
	cfg *base.Config

	// cur is the current immutable version, the view the core reads.
	cur        *version
	compactPtr [][]byte // per-level round-robin cursor (user key)
	// seeksLeft holds the remaining allowed seeks of every table charged so
	// far; seekPending maps the tables whose budget ran out to their level.
	seeksLeft   map[base.FileNum]int
	seekPending map[base.FileNum]int
}

var kind = treebase.Kind{Name: "leveled"}

// Open creates or recovers a leveled tree in dir.
func Open(cfg *base.Config, fs vfs.FS, dir string, host treebase.Host) (*treebase.Core, error) {
	l := newLayout(cfg)
	return treebase.Open(kind, cfg, fs, dir, host, l, l.cur)
}

func newLayout(cfg *base.Config) *layout {
	return &layout{
		cfg:         cfg,
		cur:         newVersion(cfg.NumLevels),
		compactPtr:  make([][]byte, cfg.NumLevels),
		seeksLeft:   make(map[base.FileNum]int),
		seekPending: make(map[base.FileNum]int),
	}
}

// Apply installs the version resulting from edit. A table the edit deletes
// — or moves: a moved table starts over — gives up its seek budget, spent
// or not.
func (l *layout) Apply(edit *manifest.VersionEdit) (treebase.View, error) {
	nv, err := l.cur.apply(edit, l.cfg.NumLevels)
	if err != nil {
		return nil, err
	}
	l.cur = nv
	for _, d := range edit.DeletedFiles {
		delete(l.seeksLeft, d.FileNum)
		delete(l.seekPending, d.FileNum)
	}
	return nv, nil
}

// WantGuard and Ingest are the guard-selection hooks; the leveled tree has
// no guards.
func (l *layout) WantGuard(ukey []byte) bool { return false }
func (l *layout) Ingest(ukey []byte)         {}

// ChargeMiss charges a Get's first searched-and-missed table (LevelDB's
// seek-triggered compaction, the baseline analogue of §4.2): a Get that
// finds its key in the first table it searches charges nothing. As in
// LevelDB, a table allows a number of seeks over its life, whatever commits
// come between them; the charge that uses them up schedules the table for
// compaction and reports spent, unless the table is pending already.
// Iterator seeks are not budgeted (the layout is no treebase.SeekCharger):
// they open one table per level whatever the outcome.
func (l *layout) ChargeMiss(level int, miss *base.FileMetadata) bool {
	left, ok := l.seeksLeft[miss.FileNum]
	if !ok {
		left = allowedSeeks(miss.Size)
	}
	l.seeksLeft[miss.FileNum] = left - 1
	if _, dup := l.seekPending[miss.FileNum]; left > 1 || dup {
		return false
	}
	l.seekPending[miss.FileNum] = level
	return true
}

// SeekPending counts the tables whose seek budget ran out and whose unit
// has not run yet.
func (l *layout) SeekPending() int { return len(l.seekPending) }

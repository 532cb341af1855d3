package leveled

import (
	"sync/atomic"

	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/vfs"
)

// layout is the leveled LSM baseline as a treebase.Layout: sorted disjoint
// levels, file-granular compaction units cut by size, and binary-search
// read paths. Every field after cfg is guarded by core.Mu.
type layout struct {
	core *treebase.Core
	cfg  *base.Config

	cur        *version
	compactPtr [][]byte // per-level round-robin cursor (user key)
	// claimed marks files owned by running compaction units (inputs and
	// targets); l0Busy marks the exclusive L0->L1 unit. Units with disjoint
	// claimed sets run concurrently, even on the same level pair.
	claimed     map[base.FileNum]bool
	l0Busy      bool
	seekPending map[base.FileNum]int // fileNum -> level, seek-triggered candidates
}

var kind = treebase.Kind{Name: "leveled"}

// Open creates or recovers a leveled tree in dir.
func Open(cfg *base.Config, fs vfs.FS, dir string, host treebase.Host) (*treebase.Core, error) {
	return treebase.Open(kind, cfg, fs, dir, host, func(c *treebase.Core) treebase.Layout {
		return newLayout(c, cfg)
	})
}

func newLayout(c *treebase.Core, cfg *base.Config) *layout {
	return &layout{
		core:        c,
		cfg:         cfg,
		cur:         newVersion(cfg.NumLevels),
		compactPtr:  make([][]byte, cfg.NumLevels),
		claimed:     make(map[base.FileNum]bool),
		seekPending: make(map[base.FileNum]int),
	}
}

func (l *layout) Apply(edit *manifest.VersionEdit) error {
	nv, err := l.cur.apply(edit, l.cfg.NumLevels)
	if err != nil {
		return err
	}
	l.cur = nv
	return nil
}

// Walk visits each level's files; no leveled file sits under a guard.
func (l *layout) Walk(fn func(level int, guard []byte, files []*base.FileMetadata)) {
	for lv, files := range l.cur.files {
		if len(files) > 0 {
			fn(lv, nil, files)
		}
	}
}

func (l *layout) L0Count() int { return len(l.cur.files[0]) }

// WantGuard and Ingest are the guard-selection hooks; the leveled tree has
// no guards.
func (l *layout) WantGuard(ukey []byte) bool { return false }
func (l *layout) Ingest(ukey []byte)         {}

func (l *layout) currentVersion() *version {
	l.core.Mu.Lock()
	defer l.core.Mu.Unlock()
	return l.cur
}

// Get probes level 0 newest file first, then the one file per deeper level
// whose range can hold ukey. A Get that examines more than one file
// charges the first file's seek budget (LevelDB's seek-triggered
// compaction).
func (l *layout) Get(ukey []byte, seq base.SeqNum, latest *atomic.Uint64, s *sstable.GetScratch) (value []byte, found bool, err error) {
	value, found, firstMiss, firstMissLevel, err := l.get(ukey, seq, latest, s)
	if firstMiss != nil {
		l.chargeSeek(firstMiss, firstMissLevel)
	}
	return value, found, err
}

func (l *layout) get(ukey []byte, seq base.SeqNum, latest *atomic.Uint64, s *sstable.GetScratch) (value []byte, found bool, firstMiss *base.FileMetadata, firstMissLevel int, err error) {
	v := l.currentVersion()
	if latest != nil {
		seq = base.SeqNum(latest.Load())
	}
	s.SearchKey = base.MakeSearchKey(s.SearchKey[:0], ukey, seq)

	// A hit (value or tombstone) ends the search. Range tombstones fold in
	// as the search descends (cov): data only moves down, so once any
	// visible entry — point or covering tombstone — is seen, everything
	// deeper is older and the comparison decides the read.
	var cov base.SeqNum
	for lv := 0; lv < l.cfg.NumLevels; lv++ {
		files := v.files[lv]
		if lv > 0 {
			i := findFile(files, ukey)
			if i < 0 {
				continue
			}
			files = files[i : i+1]
		}
		for _, f := range files {
			val, fseq, kind, c, hit, probed, gerr := l.core.ProbeFile(f, ukey, seq, s)
			if gerr != nil {
				return nil, false, firstMiss, firstMissLevel, gerr
			}
			if c > cov {
				cov = c
			}
			if hit {
				if cov > fseq {
					return nil, false, firstMiss, firstMissLevel, nil
				}
				return val, kind == base.KindSet, firstMiss, firstMissLevel, nil
			}
			if probed && firstMiss == nil {
				firstMiss, firstMissLevel = f, lv
			}
			if cov > 0 {
				return nil, false, firstMiss, firstMissLevel, nil
			}
		}
	}
	return nil, false, firstMiss, firstMissLevel, nil
}

// chargeSeek decrements a file's seek budget, scheduling a seek-triggered
// compaction when exhausted (§4.2's baseline analogue, from LevelDB).
// Level 0 is exempt: L0 files overlap each other, so compacting one L0
// file down alone could bury a key's newest version under an older one
// still sitting in another L0 file; the L0 count trigger handles L0.
func (l *layout) chargeSeek(f *base.FileMetadata, level int) {
	if l.cfg.SeekCompactionThreshold <= 0 || level == 0 || level >= l.cfg.NumLevels-1 {
		return
	}
	l.core.Mu.Lock()
	f.AllowedSeeks--
	if f.AllowedSeeks <= 0 {
		if _, dup := l.seekPending[f.FileNum]; !dup {
			l.seekPending[f.FileNum] = level
		}
		f.AllowedSeeks = allowedSeeks(f.Size)
	}
	l.core.Mu.Unlock()
}

// NewIters returns one iterator per L0 table plus one concatenating
// iterator per deeper level. Tables whose key ranges fall outside the
// bounds are pruned before any table is opened; when the request carries a
// prefix, L0 tables whose prefix bloom filter rules the prefix out are
// skipped (their tombstones are still collected).
func (l *layout) NewIters(req treebase.IterRequest, dst []iterator.Iterator) ([]iterator.Iterator, []rangedel.Tombstone, error) {
	v := l.currentVersion()
	iters := dst
	var rds []rangedel.Tombstone
	var err error
	for _, f := range v.files[0] {
		if !req.Bounds.Overlaps(f) {
			continue
		}
		if rds, err = l.core.AppendRangeDels(rds, f); err != nil {
			return iters, nil, err
		}
		it, err := l.core.OpenIter(&req, f)
		if err != nil {
			return iters, nil, err
		}
		if it != nil {
			iters = append(iters, it)
		}
	}
	for lv := 1; lv < l.cfg.NumLevels; lv++ {
		files := req.Bounds.FilterFiles(v.files[lv])
		if len(files) == 0 {
			continue
		}
		iters = append(iters, newLevelIter(l.core, files, req))
		for _, f := range files {
			if rds, err = l.core.AppendRangeDels(rds, f); err != nil {
				return iters, nil, err
			}
		}
	}
	return iters, rds, nil
}

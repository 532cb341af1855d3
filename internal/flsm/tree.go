package flsm

import (
	"sync/atomic"

	"pebblesdb/internal/base"
	"pebblesdb/internal/guard"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/vfs"
)

// layout is the FLSM structure — the paper's primary contribution — as a
// treebase.Layout: guarded levels, guard-group compaction units cut at the
// destination's guards, and the guard-aware read paths. Everything below
// picker is guarded by core.Mu.
type layout struct {
	core   *treebase.Core
	cfg    *base.Config
	picker guard.Picker

	// cur is the current immutable version.
	cur *version
	// uncommitted holds guard keys selected from inserted keys but not yet
	// partitioned on storage (§3.3). uncommitted[l] is sorted.
	uncommitted [][][]byte
	// inflight is the unit-granularity claim state of the parallel
	// compaction scheduler (see compaction.go): which guard groups are
	// owned as inputs, which levels are being written into and at what
	// shared partition.
	inflight inflight
	// seekCounts tracks consecutive seeks per guard; seekPending holds
	// guards whose budget is exhausted (§4.2 seek-based compaction).
	seekCounts  map[guardID]int
	seekPending map[guardID]bool
}

// guardID identifies a guard for seek accounting; Key=="" is the sentinel.
type guardID struct {
	Level int
	Key   string
}

var kind = treebase.Kind{Name: "FLSM", Guarded: true}

// Open creates or recovers an FLSM tree in dir.
func Open(cfg *base.Config, fs vfs.FS, dir string, host treebase.Host) (*treebase.Core, error) {
	return treebase.Open(kind, cfg, fs, dir, host, func(c *treebase.Core) treebase.Layout {
		return newLayout(c, cfg)
	})
}

func newLayout(c *treebase.Core, cfg *base.Config) *layout {
	l := &layout{
		core: c,
		cfg:  cfg,
		picker: guard.Picker{
			TopLevelBits: cfg.TopLevelBits,
			BitDecrement: cfg.BitDecrement,
			NumLevels:    cfg.NumLevels,
			Seed:         cfg.GuardHashSeed,
		},
		cur:         newVersion(cfg.NumLevels),
		uncommitted: make([][][]byte, cfg.NumLevels),
		seekCounts:  make(map[guardID]int),
		seekPending: make(map[guardID]bool),
	}
	l.inflight.init(cfg.NumLevels)
	return l
}

// Apply installs the version resulting from edit and prunes the guards it
// commits from the uncommitted sets.
func (l *layout) Apply(edit *manifest.VersionEdit) error {
	nv, err := l.cur.apply(edit, l.cfg.NumLevels)
	if err != nil {
		return err
	}
	l.cur = nv
	for _, g := range edit.NewGuards {
		l.uncommitted[g.Level] = removeKey(l.uncommitted[g.Level], g.Key)
	}
	return nil
}

func removeKey(keys [][]byte, key []byte) [][]byte {
	for i, k := range keys {
		if string(k) == string(key) {
			return append(keys[:i], keys[i+1:]...)
		}
	}
	return keys
}

// Walk visits L0 (no guards, §3.1), then per level the sentinel's files
// and each guard's — empty guards included, the paper keeps them (§3.3).
func (l *layout) Walk(fn func(level int, guard []byte, files []*base.FileMetadata)) {
	fn(0, nil, l.cur.l0)
	for lv := 1; lv < len(l.cur.levels); lv++ {
		gl := &l.cur.levels[lv]
		if len(gl.sentinel) > 0 {
			fn(lv, nil, gl.sentinel)
		}
		for i := range gl.guards {
			fn(lv, gl.guards[i].Key, gl.guards[i].Files)
		}
	}
}

func (l *layout) L0Count() int { return len(l.cur.l0) }

// WantGuard reports whether ukey would be selected as a guard at any level.
func (l *layout) WantGuard(ukey []byte) bool {
	_, ok := l.picker.GuardLevel(ukey)
	return ok
}

// Ingest hashes every inserted key and records new uncommitted guards
// (§3.2: guards are selected probabilistically from inserted keys; §4.4:
// via the key's hash). A key selected at level l is an uncommitted guard
// for l and every deeper level.
func (l *layout) Ingest(ukey []byte) {
	level, ok := l.picker.GuardLevel(ukey)
	if !ok {
		return
	}
	l.core.Mu.Lock()
	for lv := level; lv < l.cfg.NumLevels; lv++ {
		if l.cur.levels[lv].hasGuard(ukey) {
			continue
		}
		l.uncommitted[lv] = guard.InsertKey(l.uncommitted[lv], ukey)
	}
	l.core.Mu.Unlock()
}

func (l *layout) currentVersion() *version {
	l.core.Mu.Lock()
	defer l.core.Mu.Unlock()
	return l.cur
}

// guardKeys returns the committed guard keys of a level.
func (l *layout) guardKeys(level int) [][]byte {
	l.core.Mu.Lock()
	defer l.core.Mu.Unlock()
	if level < 1 || level >= l.cfg.NumLevels {
		return nil
	}
	return l.cur.levels[level].guardKeys()
}

// Get implements the FLSM read path (§3.4): per level, binary-search the
// single guard that can hold the key, then examine every sstable in that
// guard that passes the bloom filter, returning the match with the highest
// sequence number at or below the read snapshot. Range tombstones are
// folded in as the search descends: every probed source also reports the
// newest visible tombstone covering the key, and because data only moves
// down the tree, once any visible entry — point or covering tombstone — is
// found, everything deeper is older, so the comparison at that moment
// decides the read. A covered key therefore returns not-found without
// descending further and without allocating.
func (l *layout) Get(ukey []byte, seq base.SeqNum, latest *atomic.Uint64, s *sstable.GetScratch) (value []byte, found bool, err error) {
	v := l.currentVersion()
	if latest != nil {
		seq = base.SeqNum(latest.Load())
	}
	s.SearchKey = base.MakeSearchKey(s.SearchKey[:0], ukey, seq)

	// Level 0: newest file first; flush order guarantees newer files hold
	// newer versions, so the first visible hit wins.
	var cov base.SeqNum
	for _, f := range v.l0 {
		val, fseq, kind, c, ok, _, gerr := l.core.ProbeFile(f, ukey, seq, s)
		if gerr != nil {
			return nil, false, gerr
		}
		if c > cov {
			cov = c
		}
		if ok {
			if cov > fseq {
				return nil, false, nil
			}
			return val, kind == base.KindSet, nil
		}
		if cov > 0 {
			// Older files and deeper levels hold only lower sequence
			// numbers: the tombstone wins over anything still unseen.
			return nil, false, nil
		}
	}
	for lv := 1; lv < l.cfg.NumLevels; lv++ {
		gl := &v.levels[lv]
		var files []*base.FileMetadata
		idx := guard.FindGuard(gl.guards, ukey)
		if idx < 0 {
			files = gl.sentinel
		} else {
			files = gl.guards[idx].Files
		}
		if len(files) == 0 {
			continue // empty guards are skipped (§3.3)
		}
		val, kind, bestSeq, gcov, ok, gerr := l.examineGuard(files, ukey, seq, s)
		if gerr != nil {
			return nil, false, gerr
		}
		if gcov > cov {
			cov = gcov
		}
		if ok {
			if cov > bestSeq {
				return nil, false, nil
			}
			return val, kind == base.KindSet, nil
		}
		if cov > 0 {
			return nil, false, nil
		}
	}
	return nil, false, nil
}

// examineGuard probes every candidate sstable within one guard and returns
// the newest visible point entry plus the newest visible covering range
// tombstone across the guard's files (files within a guard overlap in both
// keys and sequence ranges, so all must be consulted before deciding).
// Values returned by the probes alias immutable block payloads, so tracking
// the best candidate across files requires no copies — materialization is
// deferred until the winner is known.
func (l *layout) examineGuard(files []*base.FileMetadata, ukey []byte, seq base.SeqNum, s *sstable.GetScratch) (val []byte, kind base.Kind, bestSeq, cov base.SeqNum, ok bool, err error) {
	for _, f := range files {
		v, fseq, k, c, hit, _, gerr := l.core.ProbeFile(f, ukey, seq, s)
		if gerr != nil {
			return nil, 0, 0, 0, false, gerr
		}
		if c > cov {
			cov = c
		}
		if !hit {
			continue
		}
		if !ok || fseq > bestSeq {
			val, kind, bestSeq, ok = v, k, fseq, true
		}
	}
	return val, kind, bestSeq, cov, ok, nil
}

// NewIters returns one iterator per L0 table plus a guard-aware iterator
// per populated level. Guards and tables whose key ranges fall outside the
// bounds are pruned before any table is opened; when the request carries a
// prefix, L0 tables whose prefix bloom filter rules the prefix out are
// skipped too (tombstone collection is a separate pass over the version,
// so a skipped table's range deletions are still honored).
func (l *layout) NewIters(req treebase.IterRequest, dst []iterator.Iterator) ([]iterator.Iterator, []rangedel.Tombstone, error) {
	v := l.currentVersion()
	iters := dst
	for _, f := range v.l0 {
		if !req.Bounds.Overlaps(f) {
			continue
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
		gl := &v.levels[lv]
		if gl.fileCount() == 0 {
			continue
		}
		parallel := l.cfg.ParallelSeeks && lv == l.cfg.NumLevels-1
		iters = append(iters, newGuardLevelIter(l, lv, gl, parallel, req))
	}
	rds, err := l.collectRangeDels(v, req.Bounds)
	return iters, rds, err
}

// collectRangeDels gathers the tombstones of every table in v overlapping
// bounds. The clean-table check comes first: it rejects nearly every file
// without comparing keys.
func (l *layout) collectRangeDels(v *version, bounds base.Bounds) (rds []rangedel.Tombstone, err error) {
	add := func(files []*base.FileMetadata) {
		for _, f := range files {
			if err == nil && f.NumRangeDels > 0 && bounds.Overlaps(f) {
				rds, err = l.core.AppendRangeDels(rds, f)
			}
		}
	}
	add(v.l0)
	for lv := 1; lv < l.cfg.NumLevels; lv++ {
		gl := &v.levels[lv]
		add(gl.sentinel)
		for i := range gl.guards {
			add(gl.guards[i].Files)
		}
	}
	return rds, err
}

// recordSeek charges a guard's seek budget; exhaustion schedules the guard
// for compaction (§4.2, default threshold 10 consecutive seeks).
func (l *layout) recordSeek(level int, gkey []byte, numFiles int) {
	if l.cfg.SeekCompactionThreshold <= 0 || numFiles <= 1 || level >= l.cfg.NumLevels {
		return
	}
	id := guardID{Level: level, Key: string(gkey)}
	l.core.Mu.Lock()
	n, ok := l.seekCounts[id]
	if !ok {
		n = l.cfg.SeekCompactionThreshold
	}
	n--
	if n <= 0 {
		l.seekPending[id] = true
		n = l.cfg.SeekCompactionThreshold
	}
	l.seekCounts[id] = n
	l.core.Mu.Unlock()
}

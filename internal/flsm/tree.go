package flsm

import (
	"pebblesdb/internal/base"
	"pebblesdb/internal/guard"
	"pebblesdb/internal/manifest"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/vfs"
)

// layout is the FLSM structure — the paper's primary contribution — as a
// treebase.Layout: guarded levels, guard-group compaction units cut at the
// destination's guards, and seek budgets per guard. Everything below picker
// is guarded by the core's lock.
type layout struct {
	cfg    *base.Config
	picker guard.Picker

	// cur is the current immutable version, the view the core reads.
	cur *version
	// uncommitted holds guard keys selected from inserted keys but not yet
	// partitioned on storage (§3.3). uncommitted[l] is sorted.
	uncommitted [][][]byte
	// inflight is what running units share on the output side (see
	// compaction.go): which levels are being written into and at what
	// shared partition. What they hold as input is the core's to record.
	inflight inflight
	// seekBudgets[level] holds, per guard key, the guard's seek budget;
	// seekPending holds guards whose budget is exhausted (§4.2 seek-based
	// compaction).
	seekBudgets []map[string]*treebase.SeekBudget
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
	l := newLayout(cfg)
	return treebase.Open(kind, cfg, fs, dir, host, l, l.cur)
}

// guardHashSeed seeds guard selection hashing. It is part of the on-storage
// contract: guards already chosen stay guards only under the same seed.
const guardHashSeed = 0x9747b28c

func newLayout(cfg *base.Config) *layout {
	l := &layout{
		cfg: cfg,
		picker: guard.Picker{
			TopLevelBits: cfg.TopLevelBits,
			BitDecrement: cfg.BitDecrement,
			NumLevels:    cfg.NumLevels,
			Seed:         guardHashSeed,
		},
		cur:         newVersion(cfg.NumLevels),
		uncommitted: make([][][]byte, cfg.NumLevels),
		inflight: inflight{
			writers:    make([]int, cfg.NumLevels),
			partition:  make([][][]byte, cfg.NumLevels),
			commitKeys: make([][][]byte, cfg.NumLevels),
		},
		seekBudgets: make([]map[string]*treebase.SeekBudget, cfg.NumLevels),
		seekPending: make(map[guardID]bool),
	}
	for lv := range l.seekBudgets {
		l.seekBudgets[lv] = map[string]*treebase.SeekBudget{}
	}
	return l
}

// Apply installs the version resulting from edit and prunes the guards it
// commits from the uncommitted sets.
func (l *layout) Apply(edit *manifest.VersionEdit) (treebase.View, error) {
	nv, err := l.cur.apply(edit, l.cfg.NumLevels)
	if err != nil {
		return nil, err
	}
	l.cur = nv
	for _, g := range edit.NewGuards {
		l.uncommitted[g.Level] = removeKey(l.uncommitted[g.Level], g.Key)
	}
	return nv, nil
}

func removeKey(keys [][]byte, key []byte) [][]byte {
	for i, k := range keys {
		if string(k) == string(key) {
			return append(keys[:i], keys[i+1:]...)
		}
	}
	return keys
}

// WantGuard reports whether ukey would be selected as a guard at any level.
func (l *layout) WantGuard(ukey []byte) bool {
	_, ok := l.picker.GuardLevel(ukey)
	return ok
}

// Ingest records an inserted key that WantGuard accepted as an uncommitted
// guard (§3.2: guards are selected probabilistically from inserted keys;
// §4.4: via the key's hash). A key selected at level l is an uncommitted
// guard for l and every deeper level.
func (l *layout) Ingest(ukey []byte) {
	level, ok := l.picker.GuardLevel(ukey)
	if !ok {
		return
	}
	for lv := level; lv < l.cfg.NumLevels; lv++ {
		if l.cur.levels[lv].hasGuard(ukey) {
			continue
		}
		l.uncommitted[lv] = guard.InsertKey(l.uncommitted[lv], ukey)
	}
}

// ChargeSeek charges the budget of the guard a read consulted several
// tables of (§4.2, default threshold 10 consecutive seeks): an iterator seek
// that positioned them all, or a Get that passed over the newest one whose
// key range holds its key — a Get the newest table answers costs what a
// compacted guard costs and is not charged. The seeks must be consecutive
// (treebase.SeekBudget). Exhaustion schedules the guard for compaction and
// reports spent, unless the guard is pending already. Only a guard's first
// charge allocates.
func (l *layout) ChargeSeek(level int, gkey []byte, seq base.SeqNum) (spent, restarted bool) {
	b := l.seekBudgets[level][string(gkey)]
	if b == nil {
		b = new(treebase.SeekBudget)
		l.seekBudgets[level][string(gkey)] = b
	}
	usedUp, restarted := b.Charge(l.cfg.SeekCompactionThreshold, seq)
	// Look before storing: the lookup converts gkey without allocating, the
	// store would allocate again for a guard that is already pending.
	if !usedUp || l.seekPending[guardID{Level: level, Key: string(gkey)}] {
		return false, restarted
	}
	l.seekPending[guardID{Level: level, Key: string(gkey)}] = true
	return true, restarted
}

// SeekPending counts the guards whose seek budget ran out and whose unit
// has not run yet.
func (l *layout) SeekPending() int { return len(l.seekPending) }

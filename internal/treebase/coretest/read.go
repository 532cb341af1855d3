package coretest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/iterator"
	"pebblesdb/internal/memtable"
	"pebblesdb/internal/race"
	"pebblesdb/internal/rangedel"
	"pebblesdb/internal/sstable"
	"pebblesdb/internal/treebase"
	"pebblesdb/internal/vfs"
)

// SeekPolicy says which reads the layout under test charges to a seek
// budget (§4.2 seek-based compaction). The core reports them all to every
// layout.
type SeekPolicy struct {
	// IterSeeks: an iterator seek that lands on a group of more than one
	// table is charged to the group (FLSM).
	IterSeeks bool
	// GetGroups: a Get that consults two or more tables of a group below
	// level 0 is charged to the group (FLSM).
	GetGroups bool
	// GetMisses: a Get is charged to the first table it searches without
	// finding its key, at levels 1..last-1, whatever commits come between
	// the charges (leveled, after LevelDB).
	GetMisses bool
}

// runReads is the read half of the suite: the one read path of
// treebase.Core over the layout's views.
func runReads(t *testing.T, open OpenFunc, policy SeekPolicy) {
	t.Run("ReadModel", func(t *testing.T) { testReadModel(t, open) })
	t.Run("SeekPolicy", func(t *testing.T) {
		for _, op := range []string{"iter-seek", "get-miss", "get-newest"} {
			t.Run(op, func(t *testing.T) { testSeekPolicy(t, open, policy, op) })
		}
		t.Run("commit-restarts", func(t *testing.T) { testCommitRestarts(t, open, policy) })
	})
	t.Run("WarmSeekDoesNotAllocate", func(t *testing.T) { testWarmSeekAllocs(t, open, policy) })
	t.Run("RewriteBesideAppend", func(t *testing.T) {
		for _, via := range []string{"replay", "rotation"} {
			t.Run(via, func(t *testing.T) { testRewriteBesideAppend(t, open, via == "rotation") })
		}
	})
	t.Run("PinThenLoad", func(t *testing.T) { testPinThenLoad(t, open) })
	t.Run("TwoHandles", func(t *testing.T) { testTwoHandles(t, open) })
	t.Run("IterErrors", func(t *testing.T) {
		for _, compacted := range []bool{false, true} {
			t.Run(fmt.Sprintf("compacted=%v", compacted), func(t *testing.T) { testIterErrors(t, open, compacted) })
		}
	})
}

// history is the model the read suite checks against: every version of
// every key and every range tombstone written, so it answers reads at any
// sequence number.
type history struct {
	points map[string][]pointVersion // ascending seq
	ranges []rangedel.Tombstone
}

type pointVersion struct {
	seq   base.SeqNum
	value string
	del   bool
}

// get returns what a read of k at sequence at must see.
func (h *history) get(k string, at base.SeqNum) (string, bool) {
	vs := h.points[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].seq > at }) - 1
	if i < 0 || vs[i].del {
		return "", false
	}
	for _, r := range h.ranges {
		if r.Seq <= at && r.Seq > vs[i].seq && string(r.Start) <= k && k < string(r.End) {
			return "", false
		}
	}
	return vs[i].value, true
}

type kv struct{ k, v string }

// scan returns the live keys within b at sequence at, in order.
func (h *history) scan(b base.Bounds, at base.SeqNum) []kv {
	var out []kv
	for k := range h.points {
		if v, ok := h.get(k, at); ok && b.ContainsUserKey([]byte(k)) {
			out = append(out, kv{k, v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// flushHistory writes one memtable of sets, point deletes and — with
// rangeDel — a range tombstone wide enough to span several groups of any
// level, and records it in h.
func (s *store) flushHistory(h *history, n int, tag string, rangeDel bool) {
	s.t.Helper()
	mem := memtable.New()
	if rangeDel {
		lo := s.rng.Intn(9000)
		r := rangedel.Tombstone{Start: []byte(key(lo)), End: []byte(key(lo + 700))}
		s.seq++
		r.Seq = s.seq
		mem.DeleteRange(r.Start, r.End, r.Seq)
		h.ranges = append(h.ranges, r)
	}
	for i := 0; i < n; i++ {
		k := key(s.rng.Intn(10000))
		pv := pointVersion{value: fmt.Sprintf("%s-%d", tag, i), del: s.rng.Intn(8) == 0}
		s.seq++
		pv.seq = s.seq
		if pv.del {
			mem.Set([]byte(k), pv.seq, base.KindDelete, nil)
		} else {
			mem.Set([]byte(k), pv.seq, base.KindSet, []byte(pv.value))
		}
		s.c.Ingest([]byte(k))
		h.points[k] = append(h.points[k], pv)
	}
	if err := s.c.Flush(mem.NewIter(), mem.RangeDels(), s.c.NewFileNum(), s.seq); err != nil {
		s.t.Fatal(err)
	}
}

// treeScan returns what an iterator over the tree alone shows at sequence
// at under req — the engine's collapse of internal versions, its range
// tombstone mask and its clamp to the bounds, over the core's iterators. On
// the way it checks the iterator stack against itself: a backward walk
// visits the forward walk's entries in reverse, and seeks land where a
// binary search of the forward walk says.
func (s *store) treeScan(req treebase.IterRequest, at base.SeqNum) []kv {
	s.t.Helper()
	st, iters, rds, err := s.c.NewIters(req, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	defer st.Release()
	m := iterator.NewMerging(base.InternalCompare, iters...)
	defer m.Close()
	var keys, vals [][]byte
	for m.First(); m.Valid(); m.Next() {
		keys = append(keys, append([]byte(nil), m.Key()...))
		vals = append(vals, append([]byte(nil), m.Value()...))
	}
	i := len(keys)
	for m.Last(); m.Valid(); m.Prev() {
		if i--; i < 0 || !bytes.Equal(m.Key(), keys[i]) {
			s.t.Fatalf("backward walk, %d entries from the end: at %x, the forward walk has %d entries", len(keys)-i, m.Key(), len(keys))
		}
	}
	if i != 0 {
		s.t.Fatalf("backward walk stopped %d entries short of the forward walk's first", i)
	}
	for n := 0; n < 40 && len(keys) > 0; n++ {
		target := base.MakeSearchKey(nil, base.UserKey(keys[s.rng.Intn(len(keys))]), base.SeqNum(s.rng.Intn(int(s.seq)+2)))
		if n%4 == 0 {
			target = base.MakeSearchKey(nil, []byte(key(s.rng.Intn(10001))+"x"), base.MaxSeqNum)
		}
		ge := sort.Search(len(keys), func(i int) bool { return base.InternalCompare(keys[i], target) >= 0 })
		m.SeekGE(target)
		if m.Valid() != (ge < len(keys)) || m.Valid() && !bytes.Equal(m.Key(), keys[ge]) {
			s.t.Fatalf("SeekGE(%x): valid=%v, want entry %d of %d", target, m.Valid(), ge, len(keys))
		}
		m.SeekLT(target)
		if m.Valid() != (ge > 0) || m.Valid() && !bytes.Equal(m.Key(), keys[ge-1]) {
			s.t.Fatalf("SeekLT(%x): valid=%v, want entry %d of %d", target, m.Valid(), ge-1, len(keys))
		}
	}
	if err := m.Error(); err != nil {
		s.t.Fatal(err)
	}

	mask := rangedel.NewList(rds)
	mask.Build()
	var out []kv
	var decided []byte
	for i, ikey := range keys {
		ukey, seq, kind, _ := base.DecodeInternalKey(ikey)
		if seq > at || decided != nil && bytes.Equal(ukey, decided) {
			continue
		}
		decided = ukey
		if kind == base.KindSet && mask.CoverSeq(ukey, at) <= seq && req.Bounds.ContainsUserKey(ukey) {
			out = append(out, kv{string(ukey), string(vals[i])})
		}
	}
	return out
}

// checkReads compares Get over the whole key space and full, bounded and
// prefix iteration with the model, at the latest sequence and at every
// sequence in ats.
func (s *store) checkReads(h *history, when string, ats ...base.SeqNum) {
	s.t.Helper()
	s.checkInvariants()
	for _, at := range append(ats, base.MaxSeqNum) {
		for i := 0; i < 10000; i++ {
			k := key(i)
			v, found, err := s.c.Get([]byte(k), at, nil, nil)
			if err != nil {
				s.t.Fatalf("%s: get %s at %d: %v", when, k, at, err)
			}
			if want, live := h.get(k, at); found != live || string(v) != want {
				s.t.Fatalf("%s: get %s at %d = %q found=%v, want %q found=%v", when, k, at, v, found, want, live)
			}
		}
		lo := s.rng.Intn(9000)
		prefix := []byte(key(s.rng.Intn(10000))[:s.cfg.PrefixBloomLength])
		for _, req := range []treebase.IterRequest{
			{},
			{Bounds: base.Bounds{Lower: []byte(key(lo)), Upper: []byte(key(lo + 1 + s.rng.Intn(900)))}},
			{Bounds: base.Bounds{Lower: []byte(key(lo))}},
			{Bounds: base.Bounds{Lower: prefix, Upper: base.PrefixSuccessor(nil, prefix)}, Prefix: prefix},
		} {
			got, want := s.treeScan(req, at), h.scan(req.Bounds, at)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				s.t.Fatalf("%s: scan [%s, %s) prefix %q at %d sees %d keys, want %d\n got %v\nwant %v",
					when, req.Bounds.Lower, req.Bounds.Upper, req.Prefix, at, len(got), len(want), got, want)
			}
		}
	}
}

// testReadModel checks Get and iteration against the model while the tree
// changes shape under them: after every flush, every compaction step and
// the final full compaction, with point deletes, range tombstones and — once
// a snapshot pins them — reads at older sequence numbers.
func testReadModel(t *testing.T, open OpenFunc) {
	s := openStore(t, open, vfs.NewMem(), func(cfg *base.Config) { cfg.PrefixBloomLength = 7 })
	defer s.c.Close()
	h := &history{points: map[string][]pointVersion{}}
	var snap []base.SeqNum
	for round := 0; round < 18; round++ {
		s.flushHistory(h, 300, fmt.Sprintf("r%d", round), round%3 == 2)
		if round == 6 {
			// From here on compaction keeps what a read at this sequence
			// or any later one sees.
			s.host.setSnapshot(s.seq)
			snap = []base.SeqNum{s.seq}
		}
		ats := append([]base.SeqNum(nil), snap...)
		if snap != nil && round%4 == 0 {
			ats = append(ats, snap[0]+base.SeqNum(s.rng.Int63n(int64(s.seq-snap[0])+1)))
		}
		s.checkReads(h, fmt.Sprintf("round %d, flushed", round), ats...)
		for step := 0; step < round%3; step++ {
			did, err := s.c.CompactOnce()
			if err != nil {
				t.Fatal(err)
			}
			if did {
				s.checkReads(h, fmt.Sprintf("round %d, compaction step %d", round, step), ats...)
			}
		}
	}
	m := s.c.Metrics()
	populated := 0
	for _, n := range m.LevelFiles[1:] {
		if n > 0 {
			populated++
		}
	}
	if m.Compactions == 0 || populated < 2 {
		t.Fatalf("%d compactions, level files %v: want units run and several levels populated before the full compaction", m.Compactions, m.LevelFiles)
	}
	if err := s.c.CompactAll(); err != nil {
		t.Fatal(err)
	}
	s.checkReads(h, "compacted", snap...)
}

// seekStore builds the store the seek cases read: even keys in the last
// level, odd keys in level 1 right above them — in an FLSM tree as two
// tables per group — nothing in level 0, no unit claimable, and no bloom
// filters, so a Get of an even key searches the level-1 table over it in
// vain.
func seekStore(t *testing.T, open OpenFunc) *store {
	t.Helper()
	s := openStore(t, open, vfs.NewMem(), func(cfg *base.Config) {
		// Three levels put the even keys right under level 1, so a unit
		// out of level 1 is a merge, not a move. FLSM's size-ratio trigger
		// would push so full a level 1 down at once.
		cfg.NumLevels = 3
		cfg.SizeRatioPct = -1
		cfg.BloomBitsPerKey = -1
	})
	flush := func(residue, mod int) {
		for b := 0; b < s.cfg.L0CompactionTrigger; b++ {
			mem := memtable.New()
			for i := residue; i < 2000; i += mod {
				if i/mod%s.cfg.L0CompactionTrigger == b {
					s.seq++
					mem.Set([]byte(key(i)), s.seq, base.KindSet, []byte("v"))
					s.c.Ingest([]byte(key(i)))
				}
			}
			if err := s.c.Flush(mem.NewIter(), nil, s.c.NewFileNum(), s.seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	settle := func() {
		for {
			did, err := s.c.CompactOnce()
			if err != nil {
				t.Fatal(err)
			}
			if !did {
				return
			}
		}
	}
	flush(0, 2)
	if err := s.c.CompactAll(); err != nil {
		t.Fatal(err)
	}
	flush(1, 4)
	settle()
	flush(3, 4)
	settle()
	if m := s.c.Metrics(); m.LevelFiles[0] != 0 || m.LevelFiles[1] == 0 || m.LevelFiles[2] == 0 || m.SeekCompactions != 0 || s.c.NeedsCompaction() {
		t.Fatalf("level files %v, %d seek compactions, needs compaction %v: want level 0 empty, levels 1 and 2 populated and the tree at rest",
			m.LevelFiles, m.SeekCompactions, s.c.NeedsCompaction())
	}
	return s
}

// charges reports whether policy charges the reads op names (seekReads).
func (p SeekPolicy) charges(op string) bool {
	switch op {
	case "iter-seek":
		return p.IterSeeks
	case "get-miss":
		return p.GetGroups || p.GetMisses
	}
	return false
}

// seekReads runs n reads of the kind op names on a seekStore, calling
// between before every read but the first: "iter-seek" seeks one iterator
// into the level-1 group over key 1001, alternately forward and backward;
// "get-miss" Gets even keys, which pass over that group's two tables —
// searching the level-1 table in vain in a leveled tree; "get-newest" Gets
// keys its newest table holds.
func seekReads(t *testing.T, s *store, op string, n int, between func(i int)) {
	t.Helper()
	if op != "iter-seek" {
		first := 1000
		if op == "get-newest" {
			first = 1003
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				between(i)
			}
			k := key(first + 4*(i%4))
			if _, found, err := s.c.Get([]byte(k), base.MaxSeqNum, nil, nil); !found || err != nil {
				t.Fatalf("get %s: found=%v err=%v", k, found, err)
			}
		}
		return
	}
	st, iters, _, err := s.c.NewIters(treebase.IterRequest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	m := iterator.NewMerging(base.InternalCompare, iters...)
	target := base.MakeSearchKey(nil, []byte(key(1001)), base.MaxSeqNum)
	for i := 0; i < n; i++ {
		if i > 0 {
			between(i)
		}
		if i%2 == 0 {
			m.SeekGE(target)
		} else {
			m.SeekLT(target)
		}
		if !m.Valid() {
			t.Fatalf("seek %d found nothing: %v", i, m.Error())
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// testSeekPolicy: the read a layout charges makes a unit with Seek set
// claimable once a budget runs out — SeekCompactionThreshold reads for an
// FLSM guard, a table's allowed seeks (at least 100) for a leveled Get —
// and the read it does not charge never does.
func testSeekPolicy(t *testing.T, open OpenFunc, policy SeekPolicy, op string) {
	s := seekStore(t, open)
	defer s.c.Close()
	charges := policy.charges(op)
	n := 400
	if op == "iter-seek" {
		n = 40 * s.cfg.SeekCompactionThreshold
	}
	seekReads(t, s, op, n, func(i int) {
		if op == "iter-seek" && i == s.cfg.SeekCompactionThreshold && s.c.NeedsCompaction() != charges {
			t.Fatalf("NeedsCompaction = %v after %d seeks into one group, want %v", !charges, i, charges)
		}
	})
	if got := s.c.NeedsCompaction(); got != charges {
		t.Fatalf("NeedsCompaction = %v after the reads, want %v", got, charges)
	}
	// Each budget that ran out was announced to the host once, by the read
	// that used it up, however often the reads after it ran theirs out again.
	pending := s.c.Metrics().SeekPending
	if told := s.host.scheduled.Load(); told != pending || (pending > 0) != charges {
		t.Fatalf("%d seek budgets pending, the host was told %d times: want as many, and pending work %v", pending, told, charges)
	}
	did, err := s.c.CompactOnce()
	if err != nil || did != charges {
		t.Fatalf("CompactOnce = %v, %v, want %v", did, err, charges)
	}
	want := int64(0)
	if charges {
		want = 1
	}
	if m := s.c.Metrics(); m.SeekCompactions != want || s.seekUnits.Load() != want || m.SeekPending != pending-want {
		t.Fatalf("%d seek compactions in the metrics, %d units with Detail \"seek\" in the events, %d budgets pending, want %d, %d and %d",
			m.SeekCompactions, s.seekUnits.Load(), m.SeekPending, want, want, pending-want)
	}
	s.checkInvariants()
	for i := 0; i < 2000; i++ {
		if _, found, err := s.c.Get([]byte(key(i)), base.MaxSeqNum, nil, nil); !found || err != nil {
			t.Fatalf("get %s after the reads and their compaction: found=%v err=%v", key(i), found, err)
		}
	}
}

// testCommitRestarts: an FLSM guard's budget counts reads with no commit
// between them. Each read kind the layout charges runs 20 budgets' worth of
// reads in pairs, with a commit before every pair, and no budget runs out:
// the first read of a pair restarts the budget it charges, the second adds
// to it, and the restarts are counted. The same reads with no commit
// between them then use a budget up. A leveled table's budget is LevelDB's
// allowed seeks, which commits do not restart: the reads in pairs use it
// up, and restart nothing.
func testCommitRestarts(t *testing.T, open OpenFunc, policy SeekPolicy) {
	for _, op := range []string{"iter-seek", "get-miss"} {
		if !policy.charges(op) {
			continue
		}
		t.Run(op, func(t *testing.T) {
			s := seekStore(t, open)
			defer s.c.Close()
			n := 20 * s.cfg.SeekCompactionThreshold
			if op != "iter-seek" {
				n = 400 // a leveled table allows at least 100 seeks
			}
			seekReads(t, s, op, n, func(i int) {
				if i%2 == 0 {
					s.host.committed.Add(1)
				}
			})
			m := s.c.Metrics()
			if op == "get-miss" && policy.GetMisses {
				if !s.c.NeedsCompaction() || m.SeekPending == 0 || s.host.scheduled.Load() == 0 || m.SeekRestarts != 0 {
					t.Fatalf("after %d reads with a commit before every pair: needs compaction %v, %d budgets pending, host told %d times, %d budgets restarted; want true, some, some and 0",
						n, s.c.NeedsCompaction(), m.SeekPending, s.host.scheduled.Load(), m.SeekRestarts)
				}
				return
			}
			if s.c.NeedsCompaction() || m.SeekPending != 0 || s.host.scheduled.Load() != 0 || m.SeekRestarts == 0 {
				t.Fatalf("after %d reads with a commit before every pair: needs compaction %v, %d budgets pending, host told %d times, %d budgets restarted; want false, 0, 0 and some",
					n, s.c.NeedsCompaction(), m.SeekPending, s.host.scheduled.Load(), m.SeekRestarts)
			}
			seekReads(t, s, op, n, func(int) {})
			if m := s.c.Metrics(); !s.c.NeedsCompaction() || m.SeekPending == 0 || s.host.scheduled.Load() == 0 {
				t.Fatalf("after %d consecutive reads: needs compaction %v, %d budgets pending, host told %d times; want true and some",
					n, s.c.NeedsCompaction(), m.SeekPending, s.host.scheduled.Load())
			}
		})
	}
}

// testWarmSeekAllocs pins the warm reads of a seekStore at zero
// allocations: an FLSM seek, or Get of an even key, consults both tables of
// a level-1 group and is charged every time, a leveled Get searches the
// level-1 table in vain and is charged too, and only a budget's first
// charge may allocate. Each case reads one budget's worth a run, so every
// run also uses an FLSM guard's budget up.
func testWarmSeekAllocs(t *testing.T, open OpenFunc, policy SeekPolicy) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	t.Run("iter-seek", func(t *testing.T) {
		s := seekStore(t, open)
		defer s.c.Close()
		st, iters, _, err := s.c.NewIters(treebase.IterRequest{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Release()
		m := iterator.NewMerging(base.InternalCompare, iters...)
		defer m.Close()
		target := base.MakeSearchKey(nil, []byte(key(1001)), base.MaxSeqNum)
		seeks := func() {
			for i := 0; i < s.cfg.SeekCompactionThreshold; i++ {
				if i%2 == 0 {
					m.SeekGE(target)
				} else {
					m.SeekLT(target)
				}
			}
		}
		seeks()
		if !m.Valid() {
			t.Fatalf("warm-up seeks found nothing: %v", m.Error())
		}
		if s.c.NeedsCompaction() != policy.IterSeeks {
			t.Fatalf("NeedsCompaction = %v after the warm-up seeks, want %v: the seeks do not land on a group of several tables", !policy.IterSeeks, policy.IterSeeks)
		}
		if avg := testing.AllocsPerRun(100, seeks); avg != 0 {
			t.Errorf("%d warm seeks allocate %.0f times, want 0", s.cfg.SeekCompactionThreshold, avg)
		}
	})
	t.Run("get", func(t *testing.T) {
		s := seekStore(t, open)
		defer s.c.Close()
		keys := make([][]byte, 4)
		for k := range keys {
			keys[k] = []byte(key(1000 + 4*k))
		}
		gs := sstable.AcquireGetScratch()
		defer sstable.ReleaseGetScratch(gs)
		gets := func() {
			for i := 0; i < s.cfg.SeekCompactionThreshold; i++ {
				if _, found, err := s.c.Get(keys[i%len(keys)], base.MaxSeqNum, nil, gs); !found || err != nil {
					t.Fatalf("get %s: found=%v err=%v", keys[i%len(keys)], found, err)
				}
			}
		}
		gets()
		if s.c.NeedsCompaction() != policy.GetGroups {
			t.Fatalf("NeedsCompaction = %v after the warm-up Gets, want %v", !policy.GetGroups, policy.GetGroups)
		}
		if avg := testing.AllocsPerRun(100, gets); avg != 0 {
			t.Errorf("%d warm Gets allocate %.0f times, want 0", s.cfg.SeekCompactionThreshold, avg)
		}
	})
}

// testRewriteBesideAppend pins the age order of a group (View) in the one
// case where appending every new table would break it: a last-level group is
// rewritten in place while a unit from the level above delivers a fragment
// into it. The rewrite claimed the group before the fragment arrived, so its
// output is older than the fragment and belongs in front of it; behind it, a
// Get — which stops at the first table, newest first, that holds its key —
// would return the rewritten, older version. The order must also survive
// recovery: by replay of the edits, and with rotate by a manifest rotation,
// whose snapshot edit lists each group as the version holds it.
//
// Every round writes the same keys, so all groups of the last level fill up
// together, and level 0 and level 1 pass everything on at once: two
// CompactOnce calls move a flush into the last level. In a leveled tree no
// unit rewrites the last level in place and every group is one table: the
// same steps run and the reads hold trivially.
func testRewriteBesideAppend(t *testing.T, open OpenFunc, rotate bool) {
	efs := vfs.NewErr(vfs.NewMem())
	s := openStore(t, open, efs, func(cfg *base.Config) {
		cfg.NumLevels = 3
		cfg.L0CompactionTrigger = 1
		cfg.LevelBaseBytes = 1
		cfg.SizeRatioPct = -1
	})
	defer func() { s.c.Close() }()
	last := s.cfg.NumLevels - 1
	h := &history{points: map[string][]pointVersion{}}
	round := func(r int) {
		t.Helper()
		mem := memtable.New()
		for i := 0; i < 400; i++ {
			k, v := key(i*25), fmt.Sprintf("r%d-%d", r, i)
			s.seq++
			mem.Set([]byte(k), s.seq, base.KindSet, []byte(v))
			s.c.Ingest([]byte(k))
			h.points[k] = append(h.points[k], pointVersion{seq: s.seq, value: v})
		}
		if err := s.c.Flush(mem.NewIter(), nil, s.c.NewFileNum(), s.seq); err != nil {
			t.Fatal(err)
		}
		for lv := 0; lv < last; lv++ {
			if did, err := s.c.CompactOnce(); !did || err != nil {
				t.Fatalf("round %d: CompactOnce = %v, %v with level %d populated", r, did, err, lv)
			}
		}
		if m := s.c.Metrics(); m.LevelFiles[0] != 0 || m.LevelFiles[1] != 0 {
			t.Fatalf("round %d: level files %v, want everything in level %d", r, m.LevelFiles, last)
		}
	}
	// Fill every last-level group to its cap, the trigger of its rewrite.
	for r := 0; r < s.cfg.MaxSSTablesPerGuard; r++ {
		round(r)
	}
	snap := s.seq
	s.host.setSnapshot(snap) // the rewrite keeps what a read at snap sees
	guarded := s.c.Metrics().GuardsPerLevel != nil

	// Park the next unit: in a guarded tree the rewrite of the first capped
	// group of the last level.
	release := s.host.park(1)
	unit := make(chan error, 1)
	go func() {
		_, err := s.c.CompactOnce()
		unit <- err
	}()
	parked := false
	select {
	case <-s.host.parked:
		parked = true
	case err := <-unit:
		// Nothing reached the host (a leveled tree at rest): open the gate
		// for the units of the next round.
		release()
		if err != nil {
			t.Fatal(err)
		}
	}
	if guarded && (!parked || s.inPlaceUnits.Load() != 1) {
		release()
		t.Fatalf("parked=%v with %d in-place units begun: want the rewrite of a last-level group held in the host", parked, s.inPlaceUnits.Load())
	}
	// A newer version of every key arrives from above, into the group the
	// parked rewrite holds as well.
	tables := s.c.Metrics().LevelFiles[last]
	round(s.cfg.MaxSSTablesPerGuard)
	if got := s.c.Metrics().LevelFiles[last]; guarded && (got <= tables || s.inPlaceUnits.Load() != 1) {
		release()
		t.Fatalf("%d tables in the last level, %d before the round, %d in-place units begun: want fragments delivered beside the one parked rewrite", got, tables, s.inPlaceUnits.Load())
	}
	s.checkReads(h, "rewrite parked, fragment delivered", snap)
	if parked {
		release()
		if err := <-unit; err != nil {
			t.Fatal(err)
		}
	}
	if m := s.c.Metrics(); guarded && m.InPlaceMerges != 1 {
		t.Fatalf("%d in-place merges, want the one released", m.InPlaceMerges)
	}
	s.checkReads(h, "rewrite installed", snap)

	if rotate {
		// A flush whose manifest append fails is installed but not
		// persisted; the next edit rotates the manifest with a snapshot of
		// the version. The flush's last filesystem operation is that
		// append's sync, and a flush of the same shape repeats its count.
		tiny := func(tag string) error {
			mem := memtable.New()
			s.seq++
			mem.Set([]byte(key(1)), s.seq, base.KindSet, []byte(tag))
			h.points[key(1)] = append(h.points[key(1)], pointVersion{seq: s.seq, value: tag})
			return s.c.Flush(mem.NewIter(), nil, s.c.NewFileNum(), s.seq)
		}
		start := efs.OpCount()
		if err := tiny("count"); err != nil {
			t.Fatal(err)
		}
		ops := efs.OpCount() - start
		efs.FailAt(efs.OpCount()+ops-1, vfs.OpSync, nil, false)
		if err := tiny("unpersisted"); !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("flush = %v, want the injected sync failure", err)
		}
		rotations := s.rotations.Load()
		if err := tiny("rotates"); err != nil {
			t.Fatal(err)
		}
		if s.rotations.Load() != rotations+1 {
			t.Fatalf("%d manifest rotations after the failed append, want 1", s.rotations.Load()-rotations)
		}
		s.checkReads(h, "manifest rotated", snap)
	}
	before := s.dump()
	s.reopen(open)
	if after := s.dump(); after != before {
		t.Errorf("layout changed across reopen:\n--- closed\n%s--- reopened\n%s", before, after)
	}
	s.checkReads(h, "reopened", snap)
}

// testPinThenLoad is the collapse-safety rule at tree level: a Get at the
// latest sequence pins its view before it loads the sequence, so compaction
// running beside it — with no snapshot to hold anything back — never
// collapses a committed key out of what the Get can see. The writer
// publishes a round's last sequence before flushing it, as the engine
// commits a write before its memtable is flushed.
func testPinThenLoad(t *testing.T, open OpenFunc) {
	s := openStore(t, open, vfs.NewMem())
	defer s.c.Close()
	const keys, rounds = 300, 80
	var latest atomic.Uint64
	var flushed atomic.Int64 // rounds whose flush has returned
	flushRound := func(r int) error {
		mem := memtable.New()
		seq := latest.Load()
		for i := 0; i < keys; i++ {
			seq++
			k := []byte(key(i * 33))
			mem.Set(k, base.SeqNum(seq), base.KindSet, []byte(strconv.Itoa(r)))
			s.c.Ingest(k)
		}
		latest.Store(seq)
		return s.c.Flush(mem.NewIter(), nil, s.c.NewFileNum(), base.SeqNum(seq))
	}
	if err := flushRound(0); err != nil {
		t.Fatal(err)
	}

	var writing atomic.Bool
	writing.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		for r := 1; r <= rounds; r++ {
			if err := flushRound(r); err != nil {
				t.Error(err)
				return
			}
			flushed.Store(int64(r))
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				did, err := s.c.CompactOnce()
				if err != nil {
					t.Error(err)
					return
				}
				if !did && !writing.Load() {
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for writing.Load() {
				before := flushed.Load()
				k := key(rng.Intn(keys) * 33)
				v, found, err := s.c.Get([]byte(k), 0, &latest, nil)
				if err != nil || !found {
					t.Errorf("get %s beside compaction: found=%v err=%v", k, found, err)
					return
				}
				if r, _ := strconv.Atoi(string(v)); int64(r) < before {
					t.Errorf("get %s = round %d after round %d was flushed", k, r, before)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m := s.c.Metrics(); !t.Failed() && m.Compactions == 0 {
		t.Fatal("no compaction ran beside the reads")
	}
	s.checkInvariants()
}

// handleFS counts the read handles a tree holds open, and the most it held
// at once.
type handleFS struct {
	vfs.FS
	open, peak atomic.Int64
}

func (fs *handleFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	n := fs.open.Add(1)
	for p := fs.peak.Load(); n > p && !fs.peak.CompareAndSwap(p, n); p = fs.peak.Load() {
	}
	return &handle{File: f, fs: fs}, nil
}

type handle struct {
	vfs.File
	fs *handleFS
}

func (h *handle) Close() error {
	h.fs.open.Add(-1)
	return h.File.Close()
}

// testTwoHandles serves the model's Gets and scans — range tombstones,
// bounds, prefixes — from a store of twenty-odd tables through two file
// handles and a block cache that holds nothing: TableCacheSize bounds the
// files open, not the tables a read may consult.
func testTwoHandles(t *testing.T, open OpenFunc) {
	hfs := &handleFS{FS: vfs.NewMem()}
	s := openStore(t, open, hfs, func(cfg *base.Config) {
		cfg.PrefixBloomLength = 7
		cfg.TableCacheSize = 2
		cfg.BlockCacheSize = 1
		cfg.TargetFileSize = 2 << 10 // a leveled tree, too, keeps many tables
	})
	h := &history{points: map[string][]pointVersion{}}
	for round := 0; round < 12; round++ {
		s.flushHistory(h, 300, fmt.Sprintf("r%d", round), round%3 == 2)
		if round%4 == 1 {
			if _, err := s.c.CompactOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tables := 0
	for _, n := range s.c.Metrics().LevelFiles {
		tables += n
	}
	if tables < 20 {
		t.Fatalf("store holds %d tables, want at least 20", tables)
	}
	s.checkReads(h, fmt.Sprintf("%d tables over two handles", tables))
	// Resident are the live tables and those compactions read and replaced:
	// the suite has no sweeper to evict them.
	if cm := s.c.CacheMetrics(); cm.OpenTables < tables || cm.OpenHandles > 2 || hfs.peak.Load() > 2 {
		t.Fatalf("%d tables: %d resident, %d handles open now, %d at the peak; want all resident over at most 2 handles",
			tables, cm.OpenTables, cm.OpenHandles, hfs.peak.Load())
	}
	if err := s.c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := hfs.open.Load(); n != 0 {
		t.Fatalf("%d table handles open after Close", n)
	}
}

// testIterErrors fails a table open under a running scan, and under
// NewIters: the iterator reports the error and stops, and once it is closed
// nothing it opened stays referenced — closing the tree then leaves no
// table handle open. A table cache of two entries makes the scan reopen
// tables as it goes.
func testIterErrors(t *testing.T, open OpenFunc, compacted bool) {
	efs := vfs.NewErr(vfs.NewMem())
	hfs := &handleFS{FS: efs}
	s := openStore(t, open, hfs, func(cfg *base.Config) { cfg.TableCacheSize = 2 })
	for b := 0; b < 14; b++ {
		s.mustFlush(300, "x", false)
		if b%5 == 4 {
			if _, err := s.c.CompactOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if compacted {
		if err := s.c.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}

	st, iters, _, err := s.c.NewIters(treebase.IterRequest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := iterator.NewMerging(base.InternalCompare, iters...)
	n := 0
	for m.First(); m.Valid() && n < 50; m.Next() {
		n++
	}
	efs.FailAt(efs.OpCount(), vfs.OpOpen, nil, false)
	for ; m.Valid(); m.Next() {
		n++
	}
	if err := m.Error(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("scan ended after %d entries with error %v, want the injected open failure", n, err)
	}
	if err := m.Close(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Close = %v, want the injected open failure", err)
	}
	st.Release()

	if !compacted {
		// Level 0 holds tables: with none of them cached — the tree is
		// reopened — the second one NewIters opens fails, and NewIters
		// releases the state it took.
		s.reopen(open)
		efs.FailAt(efs.OpCount()+1, vfs.OpOpen, nil, false)
		if st, iters, _, err := s.c.NewIters(treebase.IterRequest{}, nil); !errors.Is(err, vfs.ErrInjected) || iters != nil || st != nil {
			t.Fatalf("NewIters = %d iterators, %v, want the injected open failure", len(iters), err)
		}
	}
	if l0 := s.c.Metrics().LevelFiles[0]; efs.Injected() == 0 || (l0 == 0) != compacted {
		t.Fatalf("%d faults injected, %d tables in level 0 with compacted=%v", efs.Injected(), l0, compacted)
	}
	efs.Clear()
	s.verify()
	if err := s.c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := hfs.open.Load(); n != 0 {
		t.Fatalf("%d table handles still open after the iterators and the tree were closed: a reader reference leaked", n)
	}
}

package treebase

import (
	"pebblesdb/internal/base"
)

// IterStats accumulates per-iterator counters with plain (non-atomic) ints.
// The engine's pooled iterator owns one and folds the totals into its
// atomic metrics once, at Close, so the hot scan loop never touches shared
// cache lines.
type IterStats struct {
	// TablesOpened counts sstable iterators actually opened (after filter
	// pruning) over the iterator's lifetime.
	TablesOpened int64
	// PrefixSkips counts sstables skipped because their prefix bloom filter
	// ruled out the iterator's prefix before any data-block IO.
	PrefixSkips int64
	// SeekFanOuts counts seeks that positioned the tables of a group on
	// goroutines of their own (§4.2).
	SeekFanOuts int64
}

// IterRequest carries everything a tree needs to build the sstable leg of a
// point iterator: the key bounds, an optional fixed-length prefix the scan
// is constrained to (tables whose prefix filter excludes it are skipped),
// and a stats sink shared by every level/guard iterator the tree creates.
type IterRequest struct {
	Bounds base.Bounds
	// Prefix, when non-nil, promises every key the iterator will visit
	// starts with these bytes. Trees may skip any sstable whose prefix
	// bloom filter (of matching length) rules it out. Bounds must already
	// reflect the prefix — Prefix is a pruning hint, not a constraint the
	// tree enforces.
	Prefix []byte
	// Stats, when non-nil, receives table-open and prefix-skip counts.
	Stats *IterStats
}

// CountOpen records a table iterator actually being opened.
func (r *IterRequest) CountOpen() {
	if r.Stats != nil {
		r.Stats.TablesOpened++
	}
}

// CountFanOut records a seek that fanned out.
func (r *IterRequest) CountFanOut() {
	if r.Stats != nil {
		r.Stats.SeekFanOuts++
	}
}

// CountPrefixSkip records a table pruned by its prefix filter.
func (r *IterRequest) CountPrefixSkip() {
	if r.Stats != nil {
		r.Stats.PrefixSkips++
	}
}

package sstable

import (
	"sync"

	"pebblesdb/internal/block"
	"pebblesdb/internal/cache"
)

// GetStats counts read-path work done through one GetScratch. The fields
// are plain ints: a scratch is owned by exactly one Get at a time, and the
// engine folds the counts into its atomics when it releases the scratch.
type GetStats struct {
	// TablesProbed counts sstables whose index was actually searched (the
	// bloom filter passed or was absent).
	TablesProbed int64
	// BloomNegatives counts tables skipped because the bloom filter ruled
	// the key out — the filter saved a block read.
	BloomNegatives int64
	// BloomFalsePositives counts probes that passed a bloom filter but
	// found no matching key — the filter cost a wasted block read.
	BloomFalsePositives int64
	// BlockHits / BlockMisses count block-cache outcomes on the get path.
	BlockHits   int64
	BlockMisses int64
}

// Reset zeroes the counters.
func (s *GetStats) Reset() { *s = GetStats{} }

// GetScratch is the reusable per-Get working set threaded through the whole
// point-read stack (engine -> tree -> table cache -> sstable -> block). It
// exists so a steady-state Get performs O(1) allocations: the search-key
// buffer and both block cursors persist across calls via a sync.Pool.
//
// Ownership rules: a scratch belongs to exactly one Get call at a time.
// Values returned by Reader.GetScratched alias the payload of the block
// probed last, to which the scratch holds a reference: they are valid until
// the scratch's next probe or its release, whichever comes first.
type GetScratch struct {
	// SearchKey is the reusable search-key buffer; layers build the
	// (ukey, seq, KindSeek) key into it with base.MakeSearchKey.
	SearchKey []byte
	// KeyHash is bloom.Hash of the user key, computed once per Get and
	// probed into every table filter the Get consults (Reader.MayContainHash).
	KeyHash uint64
	// Stats accumulates read-path counters for this scratch's current Get.
	Stats GetStats

	index block.Iter
	data  block.Iter
	blk   *cache.Buf // the block data points into
}

// dropBlock takes the data cursor off the last probed block and gives the
// block back.
func (s *GetScratch) dropBlock() {
	s.data.Release()
	s.blk.Release()
	s.blk = nil
}

var getScratchPool = sync.Pool{New: func() interface{} { return &GetScratch{} }}

// AcquireGetScratch returns a pooled scratch. Pair with ReleaseGetScratch.
func AcquireGetScratch() *GetScratch {
	return getScratchPool.Get().(*GetScratch)
}

// ReleaseGetScratch resets the scratch's stats, gives back the last probed
// block, and returns the scratch to the pool. The caller must not retain
// references into the scratch's buffers or into that block.
func ReleaseGetScratch(s *GetScratch) {
	s.Stats.Reset()
	s.index.Release()
	s.dropBlock()
	getScratchPool.Put(s)
}

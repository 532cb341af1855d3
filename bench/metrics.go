package main

import (
	"math"
	"sort"
)

// metricDef is one metric of record: BENCHMARK.json lists exactly these.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the store would see. Every one is
// defined, and never 0, on all six workloads (the driver asks for every
// metric on every run), which is why latency is op_p50_us and not
// put_/get_/scan_: the per-kind split lives under pebblesdb.* per layer.
// bound is the share of the parent's median by which a later change may
// worsen the metric. The driver wants every spread it sees, on every
// workload BENCHMARK.json lists, inside the metric's bound, and asks for a
// third of it: so a bound is the smallest of 0.10, 0.15, 0.20 and 0.25 that
// is three times the widest spread measured on any gated workload (README,
// "Spread"), or 0.25 where none is. One workload's spread sets the bound for
// all: times drift 10% on the 2-core box from one hour to the next, and
// mixed moves its counts by 2-6%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.20},
	{"space_amp", "ratio", "lower", 0.25},
	{"read_bytes_per_op", "B", "lower", 0.15},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.15},
	{"heap_live_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by a traced run.
// They carry no bound. The kind column of the README table (C counter,
// D driver, S span) says how each is measured.
var perLayer = []metricDef{
	{"pebblesdb.op_p99_us", "us", "lower", 0},
	{"pebblesdb.heap_peak_mb", "MB", "lower", 0},
	{"pebblesdb.put_p50_us", "us", "lower", 0},
	{"pebblesdb.put_p99_us", "us", "lower", 0},
	{"pebblesdb.put_p999_us", "us", "lower", 0},
	{"pebblesdb.put_max_us", "us", "lower", 0},
	{"pebblesdb.get_p50_us", "us", "lower", 0},
	{"pebblesdb.get_p99_us", "us", "lower", 0},
	{"pebblesdb.get_p999_us", "us", "lower", 0},
	{"pebblesdb.get_max_us", "us", "lower", 0},
	{"pebblesdb.scan_p50_us", "us", "lower", 0},
	{"pebblesdb.scan_p99_us", "us", "lower", 0},
	{"pebblesdb.iter_open_us", "us", "lower", 0},
	{"pebblesdb.seek_us", "us", "lower", 0},
	{"pebblesdb.next_us", "us", "lower", 0},
	{"pebblesdb.iter_close_us", "us", "lower", 0},
	{"pebblesdb.drain_s", "s", "lower", 0},
	{"pebblesdb.trace_overhead_frac", "fraction", "lower", 0},
	{"pebblesdb.write_amp_half2_vs_whole", "ratio", "lower", 0},
	{"pebblesdb.failed_frac", "fraction", "lower", 0},
	{"pebblesdb.lost_acked_writes", "count", "lower", 0},
	{"batch.encode_ns", "ns", "lower", 0},
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.syncs", "count", "lower", 0},
	{"memtable.set_ns", "ns", "lower", 0},
	{"memtable.iter_next_ns", "ns", "lower", 0},
	{"memtable.get_hit_ns", "ns", "lower", 0},
	{"memtable.get_miss_ns", "ns", "lower", 0},
	{"memtable.bytes_per_user_byte", "ratio", "lower", 0},
	{"engine.commit_groups", "count", "lower", 0},
	{"engine.batches_per_group", "ratio", "higher", 0},
	{"engine.commit_wait_mean_us", "us", "lower", 0},
	{"engine.stall_ms", "ms", "lower", 0},
	{"engine.slowdown_writes", "count", "lower", 0},
	{"engine.stopped_writes", "count", "lower", 0},
	{"engine.memtable_waits", "count", "lower", 0},
	{"engine.flushes", "count", "lower", 0},
	{"engine.put_allocs", "count", "lower", 0},
	{"engine.get_allocs", "count", "lower", 0},
	{"treebase.compactions", "count", "lower", 0},
	{"treebase.inplace_merges", "count", "lower", 0},
	{"treebase.trivial_moves", "count", "higher", 0},
	{"treebase.bytes_flushed_per_user_byte", "ratio", "lower", 0},
	{"treebase.bytes_compacted_in_per_user_byte", "ratio", "lower", 0},
	{"treebase.bytes_compacted_out_per_user_byte", "ratio", "lower", 0},
	{"treebase.seek_compactions", "count", "lower", 0},
	{"treebase.peak_units_inflight", "count", "higher", 0},
	{"treebase.claim_conflicts", "count", "lower", 0},
	{"treebase.claim_stall_ms", "ms", "lower", 0},
	{"treebase.live_tables", "count", "lower", 0},
	{"treebase.live_mb", "MB", "lower", 0},
	{"treebase.levels_nonempty", "count", "lower", 0},
	{"treebase.merge_ns_per_entry", "ns", "lower", 0},
	{"flsm.guards", "count", "higher", 0},
	{"flsm.empty_guards", "count", "lower", 0},
	{"flsm.tables_per_nonempty_guard", "ratio", "lower", 0},
	{"flsm.tables_probed_per_get", "ratio", "lower", 0},
	{"flsm.tables_opened_per_scan", "ratio", "lower", 0},
	{"leveled.write_amp_vs_flsm", "ratio", "higher", 0},
	{"sstable.write_ns_per_entry", "ns", "lower", 0},
	{"sstable.open_us", "us", "lower", 0},
	{"sstable.get_warm_ns", "ns", "lower", 0},
	{"sstable.get_cold_ns", "ns", "lower", 0},
	{"sstable.seek_ns", "ns", "lower", 0},
	{"sstable.next_ns", "ns", "lower", 0},
	{"sstable.seq_next_ns", "ns", "lower", 0},
	{"sstable.compression_ratio", "ratio", "lower", 0},
	{"sstable.bytes_per_entry", "B", "lower", 0},
	{"block.build_ns_per_entry", "ns", "lower", 0},
	{"block.seek_ns", "ns", "lower", 0},
	{"block.next_ns", "ns", "lower", 0},
	{"bloom.build_ns_per_key", "ns", "lower", 0},
	{"bloom.probe_ns", "ns", "lower", 0},
	{"bloom.negatives_per_get", "ratio", "higher", 0},
	{"bloom.false_positive_rate", "fraction", "lower", 0},
	{"compress.encode_mb_s", "MB/s", "higher", 0},
	{"compress.decode_mb_s", "MB/s", "higher", 0},
	{"compress.encode_ms", "ms", "lower", 0},
	{"compress.decode_ms", "ms", "lower", 0},
	{"compress.blocks_decoded_per_op", "ratio", "lower", 0},
	{"cache.hit_ratio", "fraction", "higher", 0},
	{"cache.get_ns", "ns", "lower", 0},
	{"cache.set_ns", "ns", "lower", 0},
	{"tablecache.hit_ratio", "fraction", "higher", 0},
	{"tablecache.open_tables", "count", "lower", 0},
	{"tablecache.filter_mb", "MB", "lower", 0},
	{"tablecache.index_mb", "MB", "lower", 0},
	{"tablecache.find_ns", "ns", "lower", 0},
	{"iterator.merging_seek_ns", "ns", "lower", 0},
	{"iterator.merging_next_ns", "ns", "lower", 0},
	{"guard.pick_ns", "ns", "lower", 0},
	{"manifest.bytes_per_user_byte", "ratio", "lower", 0},
	{"vfs.table_write_mb", "MB", "lower", 0},
	{"vfs.table_read_mb", "MB", "lower", 0},
	{"vfs.log_write_mb", "MB", "lower", 0},
}

// median of vals; 0 for none. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) gives them (the exclusive method), which
// is what the driver computes spreads with. It needs two values or more.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	med := median(vals)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// overRounds applies f to every round and returns the median.
func overRounds(rounds []roundStats, f func(r *roundStats) float64) float64 {
	vals := make([]float64, len(rounds))
	for i := range rounds {
		vals[i] = f(&rounds[i])
	}
	return median(vals)
}

package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"pebblesdb/internal/vfs"
)

// result is one run of one workload: what the last output line reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`

	rounds int
	tracer *tracer // the spans of a traced run
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner runs workloads at one configuration and reports to log.
type runner struct {
	cfg     config
	seconds float64
	log     io.Writer
}

// timedRounds runs the timed phase in rounds that continue on one store.
// fill* cut their op stream into rounds of cfg.fillRound ops and run it
// once, whatever -seconds says: their length is their op count. The other
// workloads repeat rounds until r.seconds have been measured. A traced run
// traces every second round, and runs at least two.
func (r *runner) timedRounds(w workload, res *result, tr *tracer, cur *setupResult) ([]roundStats, error) {
	var rounds []roundStats
	var spent int64
	size := r.cfg.roundOps(w.kind)
	fillRounds := len(cur.fill) / size
	minRounds := 1
	if tr != nil {
		minRounds = 2
	}
	for i := 0; ; i++ {
		var streams [][]uint32
		last := false
		if w.kind == kindFill {
			streams = split(cur.fill[i*size : (i+1)*size])
			last = i == fillRounds-1
		} else {
			streams = roundStreams(cur.g, w.kind, size, streamRound+uint64(i*numClients))
		}
		var roundTracer *tracer
		if i%2 == 1 {
			roundTracer = tr
		}
		// fill is timed until WaitIdle returns; mixed drains every round.
		drain := (w.kind == kindFill && last) || w.kind == kindMixed
		rs, err := runRound(cur.st, cur.g, w.kind, streams, drain, roundTracer)
		if err != nil {
			return nil, err
		}
		res.Attempted += rs.ops
		res.Failed += rs.failed
		rounds = append(rounds, rs)
		spent += rs.wallNs
		if w.kind != kindFill {
			last = i+1 >= minRounds && float64(spent) >= r.seconds*1e9
		}
		if last {
			break
		}
	}
	if w.kind == kindFill {
		a, f, err := verifyFill(cur.st, cur.g)
		if err != nil {
			return nil, err
		}
		res.Attempted += a
		res.Failed += f
	}
	return rounds, nil
}

// run measures one workload. An untraced run (tr == nil) yields the
// end-to-end metrics; a traced run yields the per-layer metrics.
func (r *runner) run(w workload, seed uint64, tr *tracer) (*result, error) {
	cur, err := setup(w, r.cfg, seed, tr)
	if err != nil {
		return nil, err
	}
	res, err := r.measure(w, seed, tr, cur)
	if cerr := cur.st.db.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("close store: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// measure runs everything after the set-up on the store it made.
func (r *runner) measure(w workload, seed uint64, tr *tracer, cur *setupResult) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Traced: tr != nil, Metrics: map[string]measure{}, tracer: tr,
		Attempted: cur.attempted, Failed: cur.failed}
	fmt.Fprintf(r.log, "%s: seed %d, inputs %016x\n", w.name, seed, cur.inputs)

	rounds, err := r.timedRounds(w, res, tr, cur)
	if err != nil {
		return nil, err
	}
	res.rounds = len(rounds)

	lost := 0
	if w.kind == kindFill && !w.leveled {
		a, l, err := crashCheck(r.cfg, cur.g)
		if err != nil {
			return nil, err
		}
		res.Attempted += a
		res.Failed += l
		lost = l
	}

	if tr == nil {
		r.endToEnd(res, w, rounds, cur)
	} else if err := r.perLayer(res, w, rounds, cur, lost); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}

func (res *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			res.Metrics[name] = measure{v, d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the list of record")
}

// writeAmp is bytes the store wrote per user byte put over all the rounds
// of a workload that continues on one store, drains included. A workload
// that puts nothing reports what its store cost to build, plus anything
// its reads provoked (seek compactions), per user byte loaded: the load is
// the one write path in the benchmark whose counts repeat exactly.
func writeAmp(rounds []roundStats, load counters) float64 {
	var written, user float64
	for i := range rounds {
		written += rounds[i].after.IOWritten - rounds[i].before.IOWritten
		user += rounds[i].after.UserBytes - rounds[i].before.UserBytes
	}
	if user == 0 {
		return ratio(load.IOWritten+written, load.UserBytes)
	}
	return written / user
}

// endToEnd fills in the end-to-end metrics from the rounds, which continue
// on one store. A count is totalled over all rounds before it is divided:
// the rounds cut one measurement at arbitrary points of its compaction
// cycles. A time is the median round, so that a burst from a noisy
// neighbour, which covers several rounds, does not count; except on fill*,
// whose rounds are one op stream cut up and differ by design (the load, the
// overwrites, the drain): there a time too is taken over the whole stream,
// which measured steadier than any centre of the rounds (ops_per_s on
// fill-leveled over ten runs: whole 7.9%, trimmed mean 10.0%, median 12.1%).
func (r *runner) endToEnd(res *result, w workload, rounds []roundStats, cur *setupResult) {
	total := func(num, den func(rs *roundStats) float64) float64 {
		var n, d float64
		for i := range rounds {
			n += num(&rounds[i])
			d += den(&rounds[i])
		}
		return n / d
	}
	timed := func(num, den func(rs *roundStats) float64) float64 {
		if w.kind == kindFill {
			return total(num, den)
		}
		return overRounds(rounds, func(rs *roundStats) float64 { return num(rs) / den(rs) })
	}
	ops := func(rs *roundStats) float64 { return float64(rs.ops) }
	set := func(name string, v float64) { res.set(endToEnd, name, v) }

	set("setup_s", float64(cur.ns)/1e9)
	set("ops_per_s", 1e9*timed(ops, func(rs *roundStats) float64 { return float64(rs.wallNs) }))
	set("op_p50_us", overRounds(rounds, func(rs *roundStats) float64 { return percentile(rs.all, 0.50) / 1e3 }))
	set("write_amp", writeAmp(rounds, cur.load))
	// Space: over the second half of the rounds, when fill has written every
	// key and is overwriting.
	set("space_amp", overRounds(rounds[len(rounds)/2:], func(rs *roundStats) float64 {
		return rs.diskBytes / float64(r.cfg.liveBytes())
	}))
	set("read_bytes_per_op", total(func(rs *roundStats) float64 { return rs.after.IORead - rs.before.IORead }, ops))
	set("cpu_us_per_op", timed(func(rs *roundStats) float64 { return float64(rs.cpuNs) }, ops)/1e3)
	set("allocs_per_op", total(func(rs *roundStats) float64 { return float64(rs.mallocs) }, ops))
	// What the store retains once the timed phase is over; between the
	// rounds of a fill, compactions in flight hold tables already deleted.
	set("heap_live_mb", rounds[len(rounds)-1].heapLive/(1<<20))
	fmt.Fprintf(r.log, "%s: %d rounds of %d ops, p50 over %d samples per round\n",
		res.Workload, len(rounds), rounds[0].ops, len(rounds[0].all))
	if w.kind == kindFill {
		// The curve, so that levelling off can be seen and not only checked.
		for i := range rounds {
			fmt.Fprintf(r.log, "%s: round %d: %.0f ops/s, write_amp %.2f in the round, %.2f so far\n", res.Workload, i,
				opsPerS(&rounds[i]), writeAmp(rounds[i:i+1], counters{}), rounds[i].after.writeAmp())
		}
		fmt.Fprintf(r.log, "%s: second-half write_amp is %.3f of the whole run's\n", res.Workload, halfWriteAmp(rounds))
	}
}

// halfWriteAmp is fill's write amplification over the second half of its
// rounds as a share of the whole run's: near 1 when it has levelled off.
func halfWriteAmp(rounds []roundStats) float64 {
	return ratio(writeAmp(rounds[len(rounds)/2:], counters{}), writeAmp(rounds, counters{}))
}

func opsPerS(rs *roundStats) float64 { return float64(rs.ops) / (float64(rs.wallNs) / 1e9) }

// fillWriteAmp fills a fresh store of the other tree with the same op
// stream, in the same rounds, and returns its write amplification.
func (r *runner) fillWriteAmp(w workload, cur *setupResult) (float64, error) {
	w.leveled = !w.leveled
	st, err := openStore(r.cfg, w.leveled, vfs.NewMem())
	if err != nil {
		return 0, err
	}
	defer st.db.Close()
	var res result
	rounds, err := r.timedRounds(w, &res, nil, &setupResult{st: st, g: cur.g, fill: cur.fill})
	if err != nil {
		return 0, fmt.Errorf("yardstick fill: %w", err)
	}
	if res.Failed > 0 {
		return 0, fmt.Errorf("yardstick fill: %d of %d ops failed", res.Failed, res.Attempted)
	}
	return writeAmp(rounds, counters{}), nil
}

func (r *runner) perLayer(res *result, w workload, rounds []roundStats, cur *setupResult, lost int) error {
	set := func(name string, v float64) { res.set(perLayer, name, v) }

	// Counters: the median round; on fill*, whose rounds are one op stream
	// cut up, the whole of it.
	counted := rounds
	if w.kind == kindFill {
		whole := rounds[len(rounds)-1]
		whole.before, whole.ops = rounds[0].before, len(cur.fill)
		counted = []roundStats{whole}
	}
	byName := map[string][]float64{}
	for i := range counted {
		rs := &counted[i]
		for name, v := range counterMetrics(rs.after.sub(rs.before), rs.after, float64(rs.ops)) {
			byName[name] = append(byName[name], v)
		}
	}
	for name, vals := range byName {
		set(name, median(vals))
	}

	// Drivers, on the idle store, each call a span under the drivers root.
	driven, err := runDrivers(cur.st, cur.g, res.tracer)
	if err != nil {
		return err
	}
	for name, v := range driven {
		set(name, v)
	}

	// Spans: latencies by op kind over the traced rounds, and the calls
	// inside a scan.
	sum := res.tracer.summarize(spPut, spGet, spScan, spIterOpen, spSeek, spNext, spIterClose)
	sum.print(r.log)
	for _, kind := range []string{spPut, spGet} {
		d := sum.stat(kind).durations
		set("pebblesdb."+kind+"_p50_us", percentile(d, 0.50)/1e3)
		set("pebblesdb."+kind+"_p99_us", usPercentile(d, 0.99))
		set("pebblesdb."+kind+"_p999_us", usPercentile(d, 0.999))
		set("pebblesdb."+kind+"_max_us", percentile(d, 1)/1e3)
	}
	scans := sum.stat(spScan).durations
	set("pebblesdb.scan_p50_us", percentile(scans, 0.50)/1e3)
	set("pebblesdb.scan_p99_us", usPercentile(scans, 0.99))
	for _, call := range []string{spIterOpen, spSeek, spNext, spIterClose} {
		set("pebblesdb."+call+"_us", percentile(sum.stat(call).durations, 0.50)/1e3)
	}

	// On fill* only the overwrite rounds before the draining one are alike.
	alike := rounds
	if w.kind == kindFill {
		alike = rounds[r.cfg.keys/r.cfg.fillRound : len(rounds)-1]
	}
	var traced, untraced []roundStats
	for _, rs := range alike {
		if rs.traced {
			traced = append(traced, rs)
		} else {
			untraced = append(untraced, rs)
		}
	}
	set("pebblesdb.trace_overhead_frac", 1-overRounds(traced, opsPerS)/overRounds(untraced, opsPerS))
	// The tail and the heap's peak are too unsteady between identical runs
	// to gate a change on (README, "Spread"), so they are reported here,
	// from the untraced rounds; the peak from the first, which runs before
	// any span buffer exists.
	set("pebblesdb.op_p99_us", overRounds(untraced, func(rs *roundStats) float64 { return usPercentile(rs.all, 0.99) }))
	set("pebblesdb.heap_peak_mb", rounds[0].heapPeak/(1<<20))
	drained := rounds // every round of mixed drains, of fill* only the last
	if w.kind == kindFill {
		drained = rounds[len(rounds)-1:]
	}
	set("pebblesdb.drain_s", overRounds(drained, func(rs *roundStats) float64 { return float64(rs.drainNs) / 1e9 }))
	set("pebblesdb.failed_frac", float64(res.Failed)/float64(res.Attempted))
	set("pebblesdb.lost_acked_writes", float64(lost))

	half := 0.0
	if w.kind == kindFill {
		half = halfWriteAmp(rounds)
	}
	set("pebblesdb.write_amp_half2_vs_whole", half)

	// The paper's yardstick: leveled write amplification over FLSM's, on
	// the same op stream. fill and fill-leveled measured one side in their
	// rounds and fill the other tree here; the other workloads, which fill
	// nothing, report 0.
	yardstick := 0.0
	if w.kind == kindFill {
		amp := map[bool]float64{w.leveled: writeAmp(rounds, counters{})}
		var err error
		if amp[!w.leveled], err = r.fillWriteAmp(w, cur); err != nil {
			return err
		}
		yardstick = ratio(amp[true], amp[false])
	}
	set("leveled.write_amp_vs_flsm", yardstick)
	if sum.nestingErr > 0.05 {
		return fmt.Errorf("span self times differ from their client span by %.1f%%", 100*sum.nestingErr)
	}
	r.attribution(res, w, rounds, sum)
	return r.trafficChecks(res, w, cur)
}

// trafficChecks verifies that the workload exercised what it exists to
// exercise, against the limits in config.go. At the pinned scale a miss
// fails the run; a smaller store (the smoke test's) cannot meet them, so
// there they are only printed.
func (r *runner) trafficChecks(res *result, w workload, cur *setupResult) error {
	var missed []string
	check := func(ok bool, format string, args ...any) {
		what := fmt.Sprintf(format, args...)
		verdict := "ok"
		if !ok {
			verdict = "NOT MET"
			missed = append(missed, what)
		}
		fmt.Fprintf(r.log, "%s: traffic check: %s: %s\n", w.name, what, verdict)
	}
	hit := res.Metrics["cache.hit_ratio"].Value
	switch w.kind {
	case kindGetZipf:
		check(hit >= minZipfHitRatio, "block cache hit ratio %.3f >= %g (the hot set fits the cache)", hit, minZipfHitRatio)
		// What read-uniform decodes per op on this store, for the share
		// read-zipf decodes of it.
		uniform, err := r.uniformDecodes(cur)
		if err != nil {
			return err
		}
		share := ratio(res.Metrics["compress.blocks_decoded_per_op"].Value, uniform)
		check(share <= maxZipfDecodeShare, "decodes %.3f of the blocks per op that uniform gets do (%.3f), at most %g (decode is bypassed)", share, uniform, maxZipfDecodeShare)
	case kindGetUniform:
		check(hit <= maxUniformHitRatio, "block cache hit ratio %.3f <= %g (the working set is 9x the cache)", hit, maxUniformHitRatio)
	case kindFill:
		if w.leveled {
			break // the ratio ranges 0.69 to 1.17 between leveled fills: reported, not a limit
		}
		half := res.Metrics["pebblesdb.write_amp_half2_vs_whole"].Value
		check(math.Abs(half-1) <= maxHalfWriteAmpGap, "second-half write_amp is %.3f of the whole run's, within %g of 1 (levelled off)", half, maxHalfWriteAmpGap)
	}
	if len(missed) > 0 && r.cfg == pinned() {
		return fmt.Errorf("traffic check not met: %s", strings.Join(missed, "; "))
	}
	return nil
}

// uniformDecodes warms the current store with uniform gets and returns the
// blocks one round of them decodes per op.
func (r *runner) uniformDecodes(cur *setupResult) (float64, error) {
	var rs roundStats
	for i, ops := range []int{r.cfg.warmupOps, r.cfg.getUniformRound} {
		var err error
		rs, err = runRound(cur.st, cur.g, kindGetUniform, roundStreams(cur.g, kindGetUniform, ops, streamUniform+uint64(i*numClients)), false, nil)
		if err != nil {
			return 0, fmt.Errorf("uniform reference round: %w", err)
		}
		if rs.failed > 0 {
			return 0, fmt.Errorf("uniform reference round: %d gets failed", rs.failed)
		}
	}
	return ratio(rs.after.BlocksDecoded-rs.before.BlocksDecoded, float64(rs.ops)), nil
}

// attribution prints, for each kind of call the clients made in the traced
// rounds, the measured span time beside what the layers under it are
// estimated to account for (driver ns per call x calls counted), so that
// the unexplained remainder shows.
func (r *runner) attribution(res *result, w workload, rounds []roundStats, sum traceSummary) {
	var d counters
	for i := range rounds {
		if rounds[i].traced {
			d.cumulative = combine(d.cumulative, rounds[i].after.sub(rounds[i].before).cumulative, 1)
		}
	}
	m := func(name string) float64 { return res.Metrics[name].Value }
	type row struct {
		layer string
		ns    float64
	}
	scans := float64(sum.stat(spScan).count)
	for _, g := range []struct {
		span string
		rows []row
	}{
		{spPut, []row{
			{"batch.encode_ns x writes", m("batch.encode_ns") * d.Writes},
			{"wal.append_ns x writes", m("wal.append_ns") * d.Writes},
			{"memtable.set_ns x writes", m("memtable.set_ns") * d.Writes},
			{"guard.pick_ns x writes", m("guard.pick_ns") * d.Writes},
			{"engine.stall_ms", d.StallNs},
		}},
		{spGet, []row{
			{"memtable.get_miss_ns x gets", m("memtable.get_miss_ns") * d.Gets},
			{"bloom.probe_ns x tables considered", m("bloom.probe_ns") * (d.TablesProbed + d.BloomNeg)},
			{"tablecache.find_ns x tables probed", m("tablecache.find_ns") * d.TablesProbed},
			{"sstable.get_warm_ns x block cache hits", m("sstable.get_warm_ns") * d.CacheHits},
			{"sstable.get_cold_ns x block cache misses", m("sstable.get_cold_ns") * d.CacheMisses},
		}},
		{spIterOpen, []row{{"tablecache.find_ns x tables opened", m("tablecache.find_ns") * d.IterTables}}},
		{spSeek, []row{{"sstable.seek_ns x tables opened", m("sstable.seek_ns") * d.IterTables}}},
		{spNext, []row{{"iterator.merging_next_ns x nexts", m("iterator.merging_next_ns") * scans * float64(r.cfg.scanNexts)}}},
	} {
		st := sum.stat(g.span)
		if st.count == 0 {
			continue
		}
		measured := float64(st.selfNs)
		fmt.Fprintf(r.log, "%s: %d %s spans, %.1f ms measured; estimated from drivers and counters:\n", w.name, st.count, g.span, measured/1e6)
		rest := measured
		for _, row := range g.rows {
			rest -= row.ns
			fmt.Fprintf(r.log, "  %-44s %9.1f ms %6.1f%%\n", row.layer, row.ns/1e6, 100*row.ns/measured)
		}
		fmt.Fprintf(r.log, "  %-44s %9.1f ms %6.1f%%\n", "unexplained", rest/1e6, 100*rest/measured)
	}
}

package pebblesdb

import (
	"fmt"
	"io"

	"pebblesdb/internal/metric"
)

// WritePrometheus renders the metrics in the Prometheus text exposition
// format (version 0.0.4). Every family is a field of Metrics rendered from
// its own declaration (internal/metric): counters with a _total suffix,
// per-level and per-category families labelled, the commit-wait histogram
// as cumulative le-labelled buckets with _sum and _count. Only write
// amplification, a ratio of two of those counters, is added here. A sharded
// server merges per-shard Metrics first and exposes the result as one
// scrape target.
func (m Metrics) WritePrometheus(w io.Writer) {
	metric.WritePrometheus(w, &m)
	fmt.Fprintf(w, "# HELP pebblesdb_write_amplification Total write IO / user bytes written.\n# TYPE pebblesdb_write_amplification gauge\npebblesdb_write_amplification %g\n",
		m.WriteAmplification())
}

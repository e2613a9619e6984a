package main

import (
	"math"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json lists the same names,
// units and directions, and bench_test.go keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool // better when higher
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them (see README.md for what commit_us and
// commits_per_s mean on the basket workloads and what the basket
// metrics mean on server-writers).
var endToEnd = []metricDef{
	{"rounds_per_s", "1/s", true},
	{"lookup_us", "us", false},
	{"range_us_per_node", "us/node", false},
	{"group_us_per_node", "us/node", false},
	{"ref_us_per_node", "us/node", false},
	{"scan_us_per_node", "us/node", false},
	{"closure1n_us_per_node", "us/node", false},
	{"closuremn_us_per_node", "us/node", false},
	{"update_us_per_node", "us/node", false},
	{"edit_us", "us", false},
	{"commits_per_s", "1/s", true},
	{"commit_us", "us", false},
	{"setup_s", "s", false},
}

// counterLayer lists the per-layer metrics that are not probes: counts
// per round and ratios from the fixed-round passes, in report order.
// The probes' names and units come from adapter.go's probe groups.
var counterLayer = []metricDef{
	{"vfs.db_reads", "count/round", false},
	{"vfs.db_read_us", "us", false},
	{"vfs.db_writes", "count/round", false},
	{"vfs.db_write_us", "us", false},
	{"vfs.wal_writes", "count/round", false},
	{"vfs.wal_bytes", "B/round", false},
	{"vfs.wal_write_us", "us", false},
	{"vfs.syncs", "count/round", false},
	{"vfs.sync_us", "us", false},
	{"pager.db_bytes_per_node", "B/node", false},
	{"wal.bytes_per_commit", "B", false},
	{"buffer.hit_ratio", "frac", true},
	{"buffer.misses", "count/round", false},
	{"store.disk_reads", "count/round", false},
	{"store.disk_writes", "count/round", false},
	{"store.wal_syncs", "count/round", false},
	{"store.pages_per_commit", "count", false},
	{"txn.retries_per_commit", "count", false},
	{"remote.round_trips", "count/round", false},
	{"remote.frames", "count/round", false},
	{"remote.batched_frames", "count/round", false},
	{"remote.pages_fetched", "count/round", false},
	{"remote.server_fetches", "count/round", false},
	{"remote.client_hit_ratio", "frac", true},
	{"remote.wire_bytes_in", "B/round", false},
	{"remote.wire_bytes_out", "B/round", false},
	{"remote.flushes_per_commit", "count", false},
	{"remote.batched_commit_frac", "frac", true},
	{"remote.max_batch", "count", true},
	{"remote.aborts_per_commit", "count", false},
	{"remote.allprocs_rounds_per_s", "1/s", true},
	{"remote.allprocs_lookup_us", "us", false},
	{"op.lookup_p99_us", "us", false},
	{"op.edit_p99_us", "us", false},
	{"op.commit_p99_us", "us", false},
	{"op.failed_frac", "frac", false},
	{"trace.lookup.io_frac", "frac", false},
	{"trace.range.io_frac", "frac", false},
	{"trace.group.io_frac", "frac", false},
	{"trace.ref.io_frac", "frac", false},
	{"trace.scan.io_frac", "frac", false},
	{"trace.closure1n.io_frac", "frac", false},
	{"trace.closuremn.io_frac", "frac", false},
	{"trace.update.io_frac", "frac", false},
	{"trace.edit.io_frac", "frac", false},
	{"trace.overhead_frac", "frac", false},
	{"proc.allocs_per_round", "count/round", false},
	{"proc.alloc_bytes_per_round", "B/round", false},
	{"proc.gc_pause_ms", "ms", false},
	{"proc.cpu_util", "frac", false},
	{"proc.peak_rss_mb", "MB", false},
}

// exactCounts are the per-layer counts that single-client passes with
// one seed must reproduce exactly; -compare flags any that differ.
var exactCounts = map[string]bool{
	"vfs.db_reads": true, "vfs.db_writes": true, "vfs.wal_writes": true, "vfs.wal_bytes": true,
	"store.disk_reads": true, "store.disk_writes": true, "buffer.misses": true,
	"remote.round_trips": true, "remote.frames": true, "remote.batched_frames": true,
	"remote.pages_fetched": true, "remote.server_fetches": true,
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first quartile, median and third quartile by
// the exclusive method Python's statistics.quantiles(v, n=4) uses, the
// one the acceptance check is stated in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		x := math.NaN()
		if n == 1 {
			x = s[0]
		}
		return x, x, x
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

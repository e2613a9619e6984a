package remote

import (
	"fmt"
	"math/bits"
	"sort"
	"time"
)

// latBuckets is the number of latency histogram buckets. Bucket 0
// counts sub-microsecond round trips; bucket i counts round trips in
// [2^(i-1), 2^i) microseconds, so the top bucket covers everything
// from ~0.5s up.
const latBuckets = 20

// opHist accumulates one opcode's round-trip latencies.
type opHist struct {
	count   uint64
	totalNs int64
	buckets [latBuckets]uint64
}

// OpLatency is one opcode's round-trip latency histogram.
type OpLatency struct {
	Op      string
	Count   uint64
	Total   time.Duration
	Buckets [latBuckets]uint64
}

// Mean is the average round trip for this opcode.
func (o OpLatency) Mean() time.Duration {
	if o.Count == 0 {
		return 0
	}
	return o.Total / time.Duration(o.Count)
}

// InflightStats are the client's pipelining counters — the RetryStats
// of the multiplexed transport.
type InflightStats struct {
	// MaxDepth is the peak number of requests outstanding at once
	// across the connection pool.
	MaxDepth uint64
	// QueueWait is the cumulative time requests spent queued behind
	// the per-connection in-flight cap before reaching the wire.
	QueueWait time.Duration
	// UnknownResponses counts response frames whose request ID matched
	// no waiter (requests that timed out locally, or server bugs).
	UnknownResponses uint64
	// Ops holds one round-trip latency histogram per opcode, sorted by
	// opcode name.
	Ops []OpLatency
}

// opName renders an opcode for stats output. Its switch tag is an
// extracted byte, not a frame index, so the wiresym analyzer does not
// take it for a dispatch switch.
func opName(op byte) string {
	switch op {
	case opGetPage:
		return "GetPage"
	case opAlloc:
		return "Alloc"
	case opRoots:
		return "Roots"
	case opCommit:
		return "Commit"
	case opStats:
		return "Stats"
	case opPing:
		return "Ping"
	case opGetPages:
		return "GetPages"
	case opCommitCheck:
		return "CommitCheck"
	}
	return fmt.Sprintf("op%d", op)
}

// latBucket maps a round-trip duration to its histogram bucket.
func latBucket(d time.Duration) int {
	us := d.Microseconds()
	if us <= 0 {
		return 0
	}
	b := bits.Len64(uint64(us))
	if b >= latBuckets {
		return latBuckets - 1
	}
	return b
}

// recordOp folds one completed round trip into the per-opcode
// histogram. The histogram mutex guards in-memory counters only —
// never conn I/O — so it cannot stall the wire.
func (c *Client) recordOp(op byte, d time.Duration) {
	c.histMu.Lock()
	h := c.hist[op]
	if h == nil {
		h = &opHist{}
		c.hist[op] = h
	}
	h.count++
	h.totalNs += d.Nanoseconds()
	h.buckets[latBucket(d)]++
	c.histMu.Unlock()
}

// InflightStats snapshots the client's pipelining counters.
func (c *Client) InflightStats() InflightStats {
	st := InflightStats{
		MaxDepth:         uint64(c.peakInflight.Load()),
		QueueWait:        time.Duration(c.queueWaitNs.Load()),
		UnknownResponses: c.unknownResps.Load(),
	}
	c.histMu.Lock()
	for op, h := range c.hist {
		st.Ops = append(st.Ops, OpLatency{
			Op:      opName(op),
			Count:   h.count,
			Total:   time.Duration(h.totalNs),
			Buckets: h.buckets,
		})
	}
	c.histMu.Unlock()
	sort.Slice(st.Ops, func(i, j int) bool { return st.Ops[i].Op < st.Ops[j].Op })
	return st
}

package main

import (
	"fmt"
	"math/rand"
	"time"
)

// opKind numbers the paper's twenty operations.
type opKind int

const (
	opO1 opKind = iota
	opO2
	opO3
	opO4
	opO5A
	opO5B
	opO6
	opO7A
	opO7B
	opO8
	opO9
	opO10
	opO11
	opO12
	opO13
	opO14
	opO15
	opO16
	opO17
	opO18
	numOps
)

var opNames = [numOps]string{
	"O1", "O2", "O3", "O4", "O5A", "O5B", "O6", "O7A", "O7B", "O8",
	"O9", "O10", "O11", "O12", "O13", "O14", "O15", "O16", "O17", "O18",
}

// class groups operations the way the paper's §6 does; each class is
// one end-to-end metric.
type class int

const (
	clsLookup class = iota
	clsRange
	clsGroup
	clsRef
	clsScan
	clsClosure1N
	clsClosureMN
	clsUpdate
	clsEdit
	numClasses
)

// classMetric names each class's end-to-end metric; classTrace is the
// stem of its trace.<class>.io_frac metric.
var (
	classMetric = [numClasses]string{
		"lookup_us", "range_us_per_node", "group_us_per_node", "ref_us_per_node",
		"scan_us_per_node", "closure1n_us_per_node", "closuremn_us_per_node",
		"update_us_per_node", "edit_us",
	}
	classTrace = [numClasses]string{
		"lookup", "range", "group", "ref", "scan", "closure1n", "closuremn", "update", "edit",
	}
	classOf = [numOps]class{
		opO1: clsLookup, opO2: clsLookup,
		opO3: clsRange, opO4: clsRange,
		opO5A: clsGroup, opO5B: clsGroup, opO6: clsGroup,
		opO7A: clsRef, opO7B: clsRef, opO8: clsRef,
		opO9:  clsScan,
		opO10: clsClosure1N, opO11: clsClosure1N, opO13: clsClosure1N,
		opO14: clsClosureMN, opO15: clsClosureMN, opO18: clsClosureMN,
		opO12: clsUpdate,
		opO16: clsEdit, opO17: clsEdit,
	}
)

// basket is one round: each entry runs `times` times. The second of
// an update or edit pair reuses the first's input (O16 reversed), so
// every round leaves the database as it found it.
var basket = []struct {
	op    opKind
	times int
}{
	{opO1, 4}, {opO2, 4}, {opO3, 1}, {opO4, 1},
	{opO5A, 2}, {opO5B, 2}, {opO6, 2}, {opO7A, 2}, {opO7B, 2}, {opO8, 2},
	{opO10, 1}, {opO11, 1}, {opO13, 1}, {opO14, 1}, {opO15, 1}, {opO18, 1},
	{opO12, 2}, {opO16, 2}, {opO17, 2},
}

// scanEvery is how often a round also runs the sequential scan.
const scanEvery = 16

// commitsPerRound counts the round's update and edit operations, each
// of which commits once.
var commitsPerRound = func() (n int) {
	for _, e := range basket {
		if restoringPair(e.op) {
			n += e.times
		}
	}
	return n
}()

func restoringPair(k opKind) bool { return k == opO12 || k == opO16 || k == opO17 }

// planned is one operation of a round with its input drawn.
type planned struct {
	op opKind
	in opInput
}

// planRound draws one round's operations from rng. The oracle replay
// calls it with an identically seeded rng and so sees the same inputs.
func planRound(t *target, rng *rand.Rand, round int, buf []planned) []planned {
	buf = buf[:0]
	for _, e := range basket {
		if e.op == opO2 && t.sp.relational {
			continue // the relational mapping has no object identifiers
		}
		for i := 0; i < e.times; i++ {
			if i > 0 && restoringPair(e.op) {
				in := buf[len(buf)-1].in
				in.fwd = false
				buf = append(buf, planned{e.op, in})
				continue
			}
			buf = append(buf, planned{e.op, drawInput(t.lay, e.op, rng)})
		}
	}
	if round%scanEvery == 0 {
		buf = append(buf, planned{opO9, drawInput(t.lay, opO9, rng)})
	}
	return buf
}

// digest is an operation's answer reduced to a node count and a sum
// (of node IDs, attribute values, distances, or a content hash).
type digest struct {
	n   int
	sum uint64
}

// ctr indexes the counters read from the layers' Stats() accessors.
type ctr int

const (
	cPoolHits ctr = iota
	cPoolMisses
	cEvictions
	cDiskReads
	cDiskWrites
	cWALAppends
	cWALSyncs
	cCommits
	cCliHits
	cCliMisses
	cPagesFetched
	cFrames
	cBatchedFrames
	cRoundTrips
	cSrvCommits
	cSrvAborts
	cSrvFetches
	cSrvFlushes
	cSrvGrouped
	cSrvMaxBatch // a maximum, not a running count
	numCtrs
)

type counters [numCtrs]uint64

func (a counters) sub(b counters) counters {
	for i := range a {
		if ctr(i) != cSrvMaxBatch {
			a[i] -= b[i]
		}
	}
	return a
}

// runner drives rounds on one target and remembers every answer so it
// can be checked against the oracle afterwards.
type runner struct {
	t   *target
	rng *rand.Rand // input stream; oracleRng replays it
	buf []planned

	round int      // rounds run so far
	digs  []digest // one per operation run, in order

	oracleRng   *rand.Rand
	oracleRound int
	oracleDig   int

	attempted, failed int
	firstErr          error

	// Samples: one per round per class (µs per node, or per operation
	// for lookup and edit), and per-operation tails.
	cls      [numClasses][]float64
	lookupUs []float64 // per operation
	editUs   []float64
}

func newRunner(t *target, seed int64) *runner {
	return &runner{
		t:         t,
		rng:       rand.New(rand.NewSource(seed)),
		oracleRng: rand.New(rand.NewSource(seed)),
	}
}

func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// resetSamples forgets the timings gathered so far (the warm-up's);
// answers and the attempted and failed counts are kept.
func (r *runner) resetSamples() {
	for c := range r.cls {
		r.cls[c] = r.cls[c][:0]
	}
	r.lookupUs, r.editUs = r.lookupUs[:0], r.editUs[:0]
}

// runRound runs one basket round on the target, timing every
// operation and recording its answer.
func (r *runner) runRound() {
	t := r.t
	r.buf = planRound(t, r.rng, r.round, r.buf)
	var ns [numClasses]int64
	var nodes, ops [numClasses]int
	for i, p := range r.buf {
		r.attempted++
		if err := prepareOp(t.b, p.op, &p.in); err != nil {
			r.fail(fmt.Errorf("round %d %s: prepare: %w", r.round, opNames[p.op], err))
		}
		if t.sp.cold {
			if err := t.drop(); err != nil {
				r.fail(fmt.Errorf("round %d %s: drop: %w", r.round, opNames[p.op], err))
			}
		}
		var id uint64
		if t.tr != nil {
			id = t.tr.newID()
			t.tr.cur.Store(id)
		}
		start := time.Now()
		res, err := execOp(t.b, p.op, p.in)
		end := time.Now()
		if t.tr != nil {
			t.tr.cur.Store(0)
			t.tr.root(id, r.round, i, p.op, classOf[p.op], start, end)
		}
		d := res.digest()
		if err == nil && (p.op == opO16 || p.op == opO17) {
			d.sum, err = contentDigest(t.b, p.op, p.in)
		}
		if err != nil {
			r.fail(fmt.Errorf("round %d %s: %w", r.round, opNames[p.op], err))
		}
		r.digs = append(r.digs, d)

		dt := end.Sub(start).Nanoseconds()
		c := classOf[p.op]
		ns[c] += dt
		nodes[c] += max(1, d.n)
		ops[c]++
		switch p.op {
		case opO1, opO2:
			r.lookupUs = append(r.lookupUs, float64(dt)/1e3)
		case opO16, opO17:
			r.editUs = append(r.editUs, float64(dt)/1e3)
		}
	}
	for c := range r.cls {
		if ops[c] == 0 {
			continue
		}
		per := nodes[c]
		if class(c) == clsEdit {
			per = ops[c]
		}
		r.cls[c] = append(r.cls[c], float64(ns[c])/1e3/float64(per))
	}
	r.round++
}

// verify replays every round not yet checked on the oracle and counts
// each answer that differs as a failure.
func (r *runner) verify() {
	t := r.t
	var buf []planned
	for ; r.oracleRound < r.round; r.oracleRound++ {
		buf = planRound(t, r.oracleRng, r.oracleRound, buf)
		for _, p := range buf {
			want, err := oracleAnswer(t, p)
			got := r.digs[r.oracleDig]
			r.oracleDig++
			if err != nil {
				r.fail(fmt.Errorf("oracle round %d %s: %w", r.oracleRound, opNames[p.op], err))
			} else if got != want {
				r.fail(fmt.Errorf("round %d %s: got %d nodes sum %d, oracle has %d nodes sum %d",
					r.oracleRound, opNames[p.op], got.n, got.sum, want.n, want.sum))
			}
		}
	}
	// Checked answers are not needed again.
	r.digs, r.oracleDig = r.digs[:0], 0
}

func oracleAnswer(t *target, p planned) (digest, error) {
	if err := prepareOp(t.oracle, p.op, &p.in); err != nil {
		return digest{}, err
	}
	res, err := execOp(t.oracle, p.op, p.in)
	d := res.digest()
	if err == nil && (p.op == opO16 || p.op == opO17) {
		d.sum, err = contentDigest(t.oracle, p.op, p.in)
	}
	return d, err
}

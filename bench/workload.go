package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// spec is one workload's configuration. The flush policy (sync) is
// part of the workload and is the same on both sides of a comparison.
type spec struct {
	name, why  string
	level      int  // leaf level of the generated database
	poolPages  int  // store buffer pool, 0 = the store's default
	relational bool // reldb, not oodb
	remote     bool // basket runs through remote.Client
	cold       bool // drop the client-side caches before every operation
	sync       bool // fsync per WAL flush (the store's default)
	writers    bool // W writer clients before the basket
	oneP       bool // the one client and its in-process server share one P (see singleP)
	diskReads  bool // the window must (true) or must not read the database file
}

var workloads = []spec{
	{name: "oodb-warm", level: 5, poolPages: 2048,
		why: "embedded oodb that fits its pool, caches kept: the CPU path (hyper, oodb decode, objstore, btree, buffer hits), no reads"},
	{name: "reldb-warm", level: 5, poolPages: 2048, relational: true,
		why: "same basket on reldb: the same engine used as per-edge btree probes, no objstore; an objstore gain must not move it"},
	{name: "oodb-cold", level: 6, cold: true, diskReads: true,
		why: "level 6 is 3.4x the 1024-page pool and caches drop before every op: pager pread, page CRC, buffer insert/evict"},
	{name: "remote-cold", level: 5, poolPages: 2048, remote: true, cold: true, oneP: true,
		why: "oodb over remote.Client on loopback, client cache dropped before every op: frames, mux, server fetch, prefetch"},
	{name: "server-writers", level: 4, remote: true, sync: true, writers: true,
		why: "min(nproc,4) writers then the basket on one fsync-per-flush server: wal sync, group commit, validation"},
}

func workloadNamed(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// writerClients is W: as many writer clients as cores, at most four.
func writerClients() int { return min(runtime.NumCPU(), 4) }

// setupsPerRun is how often a run sets its workload up; setup_s is the
// median. The benchmark's contract asks for several set-ups and their
// median, so that one slow set-up does not read as a regression.
const setupsPerRun = 3

// writersShare is the part of a server-writers window the writers get;
// the basket gets the rest.
const writersShare = 0.6

// sizing holds what a smoke test shrinks; defaultSizing is the
// benchmark proper.
type sizing struct {
	warmup int // rounds run (and checked) before anything is timed
	rounds int // fixed rounds, and transactions per writer, of a traced pass
	level  int // overrides every workload's level when non-zero
}

var defaultSizing = sizing{warmup: 32, rounds: 300}

type runConfig struct {
	seed   int64
	window time.Duration
	size   sizing
	outDir string // scratch databases and trace files
}

// probeTime is how long each probe loops.
func (cfg runConfig) probeTime() time.Duration { return cfg.window / 100 }

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is the contract's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (res *result) add(attempted, failed int) {
	res.Attempted += attempted
	res.Failed += failed
}

// put records a metric declared in defs under its declared unit.
func (res *result) put(defs []metricDef, name string, v float64, samples int) {
	for _, d := range defs {
		if d.name == name {
			res.Metrics[name] = metric{v, d.unit, samples}
		}
	}
}

// check counts one harness self-check.
func (res *result) check(ok bool, format string, args ...any) {
	res.Attempted++
	if !ok {
		res.Failed++
		fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
	}
}

// singleP gives the process a single P when on, and returns the call
// that hands the others back. A closed loop of one client and its
// in-process server has no parallelism to use: the two take turns. With
// two Ps every hop between them is a cross-CPU wakeup, which on a small
// virtual machine costs more than the work it delivers and swings by
// ±40 % from run to run; with one, the server's work runs where the
// client waits and what is timed is the remote layer's code. The price:
// concurrency inside the client or the server cannot show. The traced
// run therefore also reports the workload with every P, ungated
// (remote.allprocs_*).
func singleP(on bool) (restore func()) {
	if !on {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// ---- set-up -------------------------------------------------------------

var scratchSeq int

// scratchDir makes a fresh directory for one database under outDir.
func scratchDir(cfg runConfig) (string, error) {
	scratchSeq++
	dir := filepath.Join(cfg.outDir, "tmp", fmt.Sprintf("%d-%d", os.Getpid(), scratchSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

// setUp is what setup_s times: generate the database and its oracle,
// open or serve it, and run and check the warm-up rounds.
func setUp(sp spec, cfg runConfig, tr *tracer) (*target, *runner, error) {
	if cfg.size.level != 0 {
		sp.level = cfg.size.level
	}
	dir, err := scratchDir(cfg)
	if err != nil {
		return nil, nil, err
	}
	t, err := openTarget(sp, dir, cfg.seed, tr)
	if err != nil {
		return nil, nil, err
	}
	r := newRunner(t, cfg.seed)
	restore := singleP(sp.oneP)
	for i := 0; i < cfg.size.warmup; i++ {
		r.runRound()
	}
	restore()
	r.verify()
	r.resetSamples()
	if tr != nil {
		tr.reset()
	}
	return t, r, nil
}

// ---- measuring ----------------------------------------------------------

// limits bound one measurement: a window, or fixed counts.
type limits struct {
	window time.Duration // 0 = use the counts
	rounds int
	txns   int // per writer
}

// measured is what one pass over a target produced.
type measured struct {
	// Writers phase (server-writers only).
	acked, attempts, wrong int
	writersElapsed         time.Duration
	txnUs                  []float64
	writersCtr             counters

	// Basket phase.
	rounds  int
	elapsed time.Duration
	ctr     counters
	vfs     [numKinds]kindStat // traced passes only
	wireIn  int64
	wireOut int64
	proc    procUsage // resources the basket phase used

	dbBytesPerNode float64
}

func (t *target) traceStats() (st [numKinds]kindStat, in, out int64) {
	if t.tr == nil {
		return
	}
	t.tr.mu.Lock()
	st = t.tr.stat
	t.tr.mu.Unlock()
	return st, t.tr.wireIn.Load(), t.tr.wireOut.Load()
}

// measure runs the workload on an already set-up target: the writers
// first where the workload has them, then basket rounds.
func measure(t *target, r *runner, lim limits) (measured, error) {
	var m measured
	basketWindow := lim.window
	if t.sp.writers {
		writersWindow := time.Duration(float64(lim.window) * writersShare)
		basketWindow = lim.window - writersWindow
		run, err := t.runWriters(writerClients(), writersWindow, lim.txns)
		if err != nil {
			return m, err
		}
		m.wrong, m.writersElapsed, m.writersCtr = run.wrong, run.elapsed, run.ctr
		for _, o := range run.outs {
			m.acked += len(o.latNs)
			m.attempts += o.attempts
			for _, ns := range o.latNs {
				m.txnUs = append(m.txnUs, float64(ns)/1e3)
			}
		}
	}

	restore := singleP(t.sp.oneP)
	c0 := t.counters()
	v0, in0, out0 := t.traceStats()
	p0 := readProc()
	start := time.Now()
	for {
		if lim.window > 0 {
			if time.Since(start) >= basketWindow {
				break
			}
		} else if m.rounds >= lim.rounds {
			break
		}
		r.runRound()
		m.rounds++
	}
	m.elapsed = time.Since(start)
	restore()
	m.proc = readProc().sub(p0)
	m.ctr = t.counters().sub(c0)
	v1, in1, out1 := t.traceStats()
	for k := range m.vfs {
		m.vfs[k] = kindStat{v1[k].calls - v0[k].calls, v1[k].ns - v0[k].ns, v1[k].bytes - v0[k].bytes}
	}
	m.wireIn, m.wireOut = in1-in0, out1-out0
	m.dbBytesPerNode = t.dbBytesPerNode()
	r.verify()
	return m, nil
}

// account adds one pass's operations, failures and self-checks to res.
func account(res *result, sp spec, r *runner, m measured) {
	res.add(r.attempted+m.acked, r.failed)
	selfCheck(res, sp, m)
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failure: %v\n", sp.name, r.firstErr)
	}
}

// selfCheck asserts the harness still measures what the workload says:
// warm windows read nothing from the database file, cold ones do, and
// a cold client fetches from its server.
func selfCheck(res *result, sp spec, m measured) {
	reads := m.ctr[cDiskReads]
	if sp.diskReads {
		res.check(reads > 0, "%s: a cold window made no disk reads", sp.name)
	} else {
		res.check(reads == 0, "%s: %d disk reads in a window that should make none", sp.name, reads)
	}
	if sp.remote && sp.cold {
		res.check(m.ctr[cPagesFetched] > 0, "%s: a cold client fetched no pages", sp.name)
	}
	if sp.writers {
		res.check(m.wrong == 0, "%s: %d writer nodes differ from their acknowledged rotations", sp.name, m.wrong)
	}
}

// ---- the end-to-end run ---------------------------------------------------

// runEndToEnd sets the workload up setupsPerRun times, measures one
// untraced window on the last set-up and checks every answer.
func runEndToEnd(sp spec, cfg runConfig) (result, error) {
	res := result{Metrics: map[string]metric{}}
	var setupS []float64
	var t *target
	var r *runner
	for i := 0; i < setupsPerRun; i++ {
		if t != nil {
			res.add(r.attempted, r.failed)
			if err := t.close(); err != nil {
				return res, err
			}
		}
		start := time.Now()
		var err error
		if t, r, err = setUp(sp, cfg, nil); err != nil {
			return res, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer t.close()

	runtime.GC()
	m, err := measure(t, r, limits{window: cfg.window})
	if err != nil {
		return res, err
	}
	account(&res, sp, r, m)

	put := func(name string, v float64, samples int) { res.put(endToEnd, name, v, samples) }
	roundsPerS := float64(m.rounds) / m.elapsed.Seconds()
	put("rounds_per_s", roundsPerS, m.rounds)
	for c, name := range classMetric {
		put(name, median(r.cls[c]), len(r.cls[c]))
	}
	if sp.writers {
		put("commits_per_s", float64(m.acked)/m.writersElapsed.Seconds(), m.acked)
		put("commit_us", median(m.txnUs), len(m.txnUs))
	} else {
		// Every workload must report every end-to-end metric and none
		// may be 0 (README, "End-to-end metrics"). A basket workload commits
		// only in its update and edit operations, so here the two say
		// again what rounds_per_s and edit_us say.
		put("commits_per_s", roundsPerS*float64(commitsPerRound), m.rounds*commitsPerRound)
		put("commit_us", median(r.cls[clsEdit]), len(r.cls[clsEdit]))
	}
	put("setup_s", median(setupS), len(setupS))
	for _, d := range endToEnd {
		v, ok := res.Metrics[d.name]
		res.check(ok && v.Samples > 0 && !math.IsNaN(v.Value) && v.Value > 0, "%s: metric %s has no positive value", sp.name, d.name)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// ---- the traced run -------------------------------------------------------

// procUsage is the process's resource use so far.
type procUsage struct {
	mallocs, allocBytes, gcPauseNs uint64
	cpu                            time.Duration
	maxRSSKB                       int64
}

func (a procUsage) sub(b procUsage) procUsage {
	a.mallocs -= b.mallocs
	a.allocBytes -= b.allocBytes
	a.gcPauseNs -= b.gcPauseNs
	a.cpu -= b.cpu
	return a // maxRSSKB is a high-water mark and stays
}

func readProc() procUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := procUsage{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs}
	u.cpu, u.maxRSSKB = rusage()
	return u
}

// fixedPass sets the workload up once, runs the fixed-count pass,
// traced or not, and tears the set-up down.
func fixedPass(sp spec, cfg runConfig, tr *tracer, res *result) (*runner, measured, error) {
	t, r, err := setUp(sp, cfg, tr)
	if err != nil {
		return nil, measured{}, err
	}
	m, err := measure(t, r, limits{rounds: cfg.size.rounds, txns: cfg.size.rounds})
	if err != nil {
		t.close()
		return nil, m, err
	}
	account(res, sp, r, m)
	return r, m, t.close()
}

// runTraced produces the per-layer metrics: an untraced fixed-round
// pass for the counters, a traced one for spans and seam timings, a
// second traced one to show the counts repeat, and the probes.
func runTraced(sp spec, cfg runConfig, probes map[string]metric) (result, error) {
	res := result{Metrics: map[string]metric{}}

	plainR, plain, err := fixedPass(sp, cfg, nil, &res)
	if err != nil {
		return res, err
	}
	tr := newTracer()
	_, traced, err := fixedPass(sp, cfg, tr, &res)
	if err != nil {
		return res, err
	}
	if err := tr.writeFile(filepath.Join(cfg.outDir, "trace-"+sp.name+".json"), sp.name); err != nil {
		return res, err
	}
	_, again, err := fixedPass(sp, cfg, newTracer(), &res)
	if err != nil {
		return res, err
	}

	// No wrapper may change what the engine does: the basket phase's
	// counts are the same traced and untraced, and the same twice.
	res.check(plain.ctr == traced.ctr, "%s: traced counters %v differ from untraced %v", sp.name, traced.ctr, plain.ctr)
	res.check(traced.ctr == again.ctr, "%s: two traced passes disagree: %v vs %v", sp.name, traced.ctr, again.ctr)
	for k := range traced.vfs {
		if k == kindSrvWrite {
			// The server records a response after writing it, by when
			// the client may have ended the pass: off by one at the edges.
			continue
		}
		a, b := traced.vfs[k], again.vfs[k]
		// A connection delivers the same bytes in a varying number
		// of reads; only the files' call counts must repeat.
		sameCalls := a.calls == b.calls || k >= kindCliWrite
		res.check(sameCalls && a.bytes == b.bytes, "%s: two traced passes disagree on %s: %d calls %d bytes vs %d calls %d bytes",
			sp.name, kindNames[k], a.calls, a.bytes, b.calls, b.bytes)
	}

	put := func(name string, v float64, samples int) {
		if math.IsNaN(v) { // a tail of no samples
			v = 0
		}
		res.put(counterLayer, name, v, samples)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rounds := float64(plain.rounds)
	perRound := func(name string, v uint64) { put(name, float64(v)/rounds, plain.rounds) }
	seam := func(count, us string, k int) {
		st := traced.vfs[k]
		put(count, float64(st.calls)/rounds, traced.rounds)
		put(us, ratio(float64(st.ns)/1e3, float64(st.calls)), int(st.calls))
	}
	seam("vfs.db_reads", "vfs.db_read_us", kindDBRead)
	seam("vfs.db_writes", "vfs.db_write_us", kindDBWrite)
	seam("vfs.wal_writes", "vfs.wal_write_us", kindWALWrite)
	seam("vfs.syncs", "vfs.sync_us", kindSync)
	put("vfs.wal_bytes", float64(traced.vfs[kindWALWrite].bytes)/rounds, traced.rounds)
	put("pager.db_bytes_per_node", plain.dbBytesPerNode, 1)
	c := plain.ctr
	commits := float64(c[cCommits])
	put("wal.bytes_per_commit", ratio(float64(traced.vfs[kindWALWrite].bytes), commits), int(c[cCommits]))
	put("buffer.hit_ratio", ratio(float64(c[cPoolHits]), float64(c[cPoolHits]+c[cPoolMisses])), int(c[cPoolHits]+c[cPoolMisses]))
	perRound("buffer.misses", c[cPoolMisses])
	perRound("store.disk_reads", c[cDiskReads])
	perRound("store.disk_writes", c[cDiskWrites])
	perRound("store.wal_syncs", c[cWALSyncs])
	put("store.pages_per_commit", ratio(float64(c[cDiskWrites]), commits), int(c[cCommits]))
	perRound("remote.round_trips", c[cRoundTrips])
	perRound("remote.frames", c[cFrames])
	perRound("remote.batched_frames", c[cBatchedFrames])
	perRound("remote.pages_fetched", c[cPagesFetched])
	perRound("remote.server_fetches", c[cSrvFetches])
	put("remote.client_hit_ratio", ratio(float64(c[cCliHits]), float64(c[cCliHits]+c[cCliMisses])), int(c[cCliHits]+c[cCliMisses]))
	put("remote.wire_bytes_in", float64(traced.wireIn)/rounds, traced.rounds)
	put("remote.wire_bytes_out", float64(traced.wireOut)/rounds, traced.rounds)

	// The writers' counters; zero on the single-client workloads.
	w := plain.writersCtr
	acked := float64(plain.acked)
	put("txn.retries_per_commit", ratio(float64(plain.attempts-plain.acked), acked), plain.acked)
	put("remote.flushes_per_commit", ratio(float64(w[cSrvFlushes]), acked), plain.acked)
	put("remote.batched_commit_frac", ratio(float64(w[cSrvGrouped]), acked), plain.acked)
	put("remote.max_batch", float64(w[cSrvMaxBatch]), plain.acked)
	put("remote.aborts_per_commit", ratio(float64(w[cSrvAborts]), acked), plain.acked)

	tail := func(name string, v []float64) { put(name, quantile(sortedCopy(v), 0.99), len(v)) }
	tail("op.lookup_p99_us", plainR.lookupUs)
	tail("op.edit_p99_us", plainR.editUs)
	tail("op.commit_p99_us", plain.txnUs)

	// A workload gated on one P is also shown with every P.
	put("remote.allprocs_rounds_per_s", 0, 0)
	put("remote.allprocs_lookup_us", 0, 0)
	if sp.oneP {
		everyP := sp
		everyP.oneP = false
		r, m, err := fixedPass(everyP, cfg, nil, &res)
		if err != nil {
			return res, err
		}
		put("remote.allprocs_rounds_per_s", float64(m.rounds)/m.elapsed.Seconds(), m.rounds)
		put("remote.allprocs_lookup_us", median(r.cls[clsLookup]), len(r.cls[clsLookup]))
	}

	frac := tr.ioFrac()
	for cl, stem := range classTrace {
		put("trace."+stem+".io_frac", frac[cl], len(plainR.cls[cl]))
	}
	put("trace.overhead_frac", 1-ratio(float64(traced.rounds)/traced.elapsed.Seconds(), rounds/plain.elapsed.Seconds()), plain.rounds)

	pu := plain.proc
	put("proc.allocs_per_round", float64(pu.mallocs)/rounds, plain.rounds)
	put("proc.alloc_bytes_per_round", float64(pu.allocBytes)/rounds, plain.rounds)
	put("proc.gc_pause_ms", float64(pu.gcPauseNs)/1e6, 1)
	put("proc.cpu_util", ratio(pu.cpu.Seconds(), plain.elapsed.Seconds()*float64(runtime.NumCPU())), 1)
	put("proc.peak_rss_mb", float64(pu.maxRSSKB)/1024, 1)

	for name, m := range probes {
		res.Metrics[name] = m
	}
	put("op.failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

package harness

import (
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypermodel/internal/acl"
	"hypermodel/internal/backend/memdb"
	"hypermodel/internal/backend/oodb"
	"hypermodel/internal/backend/reldb"
	"hypermodel/internal/fault"
	"hypermodel/internal/hyper"
	"hypermodel/internal/remote"
	"hypermodel/internal/stats"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
	"hypermodel/internal/txn"
	"hypermodel/internal/version"
)

// BackendKind names one of the three mappings.
type BackendKind string

// The backend axis of experiment E12.
const (
	KindOODB  BackendKind = "oodb"
	KindRelDB BackendKind = "reldb"
	KindMemDB BackendKind = "memdb"
)

// AllBackends lists the E12 comparison axis.
var AllBackends = []BackendKind{KindOODB, KindRelDB, KindMemDB}

// OpenBackend creates an empty backend of the given kind under dir.
func OpenBackend(kind BackendKind, dir string) (hyper.Backend, error) {
	switch kind {
	case KindOODB:
		return oodb.Open(filepath.Join(dir, "oodb.db"), oodb.DefaultOptions())
	case KindRelDB:
		return reldb.Open(filepath.Join(dir, "reldb.db"), reldb.Options{})
	case KindMemDB:
		return memdb.Open(filepath.Join(dir, "memdb.gob"))
	default:
		return nil, fmt.Errorf("harness: unknown backend %q", kind)
	}
}

// Build generates the level-sized test database on a fresh backend of
// the given kind and returns the open backend, its layout and the E1
// creation timings.
func Build(kind BackendKind, dir string, level int, seed int64) (hyper.Backend, hyper.Layout, *hyper.GenTimings, error) {
	b, err := OpenBackend(kind, dir)
	if err != nil {
		return nil, hyper.Layout{}, nil, err
	}
	lay, tm, err := hyper.Generate(b, hyper.GenConfig{LeafLevel: level, Seed: seed})
	if err != nil {
		b.Close()
		return nil, hyper.Layout{}, nil, err
	}
	return b, lay, tm, nil
}

// TimeOpen measures the "database open" operation — the seventh of the
// simple operations the HyperModel incorporates from /RUBE87/ — on an
// already-generated database: open plus the first node access.
func TimeOpen(kind BackendKind, dir string) (time.Duration, error) {
	start := time.Now()
	b, err := OpenBackend(kind, dir)
	if err != nil {
		return 0, err
	}
	if _, err := b.Node(1); err != nil {
		b.Close()
		return 0, err
	}
	elapsed := time.Since(start)
	return elapsed, b.Close()
}

// --- E11: clustering ablation ---

// ClusterResult is one configuration of the clustering ablation.
type ClusterResult struct {
	Config      string // "clustered (DFS + near hints)" etc.
	Closure1N   OpResult
	ClosureMN   OpResult
	Reads1NCold uint64 // disk reads issued by the cold closure1N pass
	ReadsMNCold uint64
}

// RunClusterAblation builds the same database with clustering on and
// off and measures the closure traversals on both — the paper's
// prediction is closure1N ≪ closureMN cold only when clustering
// follows the 1-N hierarchy.
func RunClusterAblation(dir string, level int, seed int64, cfg Config) ([]ClusterResult, error) {
	type variant struct {
		name       string
		clustering bool
		scatter    bool
		order      hyper.Order
	}
	variants := []variant{
		{"clustered (DFS + near hints)", true, false, hyper.OrderDFS},
		{"unclustered (scattered)", false, true, hyper.OrderBFS},
	}
	var out []ClusterResult
	for i, v := range variants {
		db, err := oodb.Open(filepath.Join(dir, fmt.Sprintf("cluster%d.db", i)), oodb.Options{Clustering: v.clustering, Scatter: v.scatter})
		if err != nil {
			return nil, err
		}
		lay, _, err := hyper.Generate(db, hyper.GenConfig{LeafLevel: level, Seed: seed, Order: v.order})
		if err != nil {
			db.Close()
			return nil, err
		}
		run := func(opID string) (OpResult, uint64, error) {
			_, _, before := db.CacheStats()
			res, err := Run(db, lay, Config{Iterations: cfg.Iterations, Seed: cfg.Seed, Depth: cfg.Depth, Ops: []string{opID}})
			if err != nil {
				return OpResult{}, 0, err
			}
			_, _, after := db.CacheStats()
			return res[0], after - before, nil
		}
		r1, reads1, err := run("O10")
		if err != nil {
			db.Close()
			return nil, err
		}
		rm, readsM, err := run("O14")
		if err != nil {
			db.Close()
			return nil, err
		}
		out = append(out, ClusterResult{
			Config: v.name, Closure1N: r1, ClosureMN: rm,
			Reads1NCold: reads1, ReadsMNCold: readsM,
		})
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RenderClusterAblation writes the E11 table.
func RenderClusterAblation(w io.Writer, results []ClusterResult) {
	title := "E11: clustering along the 1-N hierarchy (oodb)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-30s %14s %14s %10s %10s %10s\n",
		"configuration", "closure1N cold", "closureMN cold", "MN/1N", "1N reads", "MN reads")
	for _, r := range results {
		c1 := r.Closure1N.Cold.MsPerNode()
		cm := r.ClosureMN.Cold.MsPerNode()
		ratio := "-"
		if c1 > 0 {
			ratio = fmt.Sprintf("%.1fx", cm/c1)
		}
		fmt.Fprintf(w, "%-30s %14s %14s %10s %10d %10d\n",
			r.Config, stats.FormatMs(c1), stats.FormatMs(cm), ratio, r.Reads1NCold, r.ReadsMNCold)
	}
	fmt.Fprintln(w)
}

// --- E16: cache-size sensitivity ---

// CacheSweepResult is one buffer pool configuration.
type CacheSweepResult struct {
	PoolPages int
	SeqScan   OpResult // O9: whole-structure working set
	Closure   OpResult // O10: small working set
	HitRate   float64  // pool hits / (hits+misses) across the runs
}

// RunCacheSweep measures how the buffer pool size changes warm-run
// behaviour (the paper's R7 discussion: "parts of the database have to
// be cached/checked-out to main memory in the workstations"). A pool
// smaller than the structure makes even the warm sequential scan
// re-read pages; small traversals stay cached much longer.
func RunCacheSweep(dir string, level int, seed int64, poolSizes []int, cfg Config) ([]CacheSweepResult, error) {
	var out []CacheSweepResult
	for i, pool := range poolSizes {
		db, err := oodb.Open(
			filepath.Join(dir, fmt.Sprintf("cache%d.db", i)),
			oodb.Options{Clustering: true, Store: store.Options{PoolPages: pool}},
		)
		if err != nil {
			return nil, err
		}
		lay, _, err := hyper.Generate(db, hyper.GenConfig{LeafLevel: level, Seed: seed})
		if err != nil {
			db.Close()
			return nil, err
		}
		h0, m0, _ := db.CacheStats()
		results, err := Run(db, lay, Config{
			Iterations: cfg.Iterations, Seed: cfg.Seed, Depth: cfg.Depth,
			Ops: []string{"O9", "O10"},
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		h1, m1, _ := db.CacheStats()
		res := CacheSweepResult{PoolPages: pool}
		for _, r := range results {
			switch r.ID {
			case "O9":
				res.SeqScan = r
			case "O10":
				res.Closure = r
			}
		}
		if tot := float64((h1 - h0) + (m1 - m0)); tot > 0 {
			res.HitRate = float64(h1-h0) / tot
		}
		out = append(out, res)
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RenderCacheSweep writes the E16 table.
func RenderCacheSweep(w io.Writer, level int, results []CacheSweepResult) {
	title := fmt.Sprintf("E16: buffer pool size vs warm behaviour (oodb, level %d)", level)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-12s %14s %14s %14s %14s %9s\n",
		"pool pages", "seqScan cold", "seqScan warm", "closure cold", "closure warm", "hit rate")
	for _, r := range results {
		fmt.Fprintf(w, "%-12d %14s %14s %14s %14s %8.1f%%\n",
			r.PoolPages,
			stats.FormatMs(r.SeqScan.Cold.MsPerNode()), stats.FormatMs(r.SeqScan.Warm.MsPerNode()),
			stats.FormatMs(r.Closure.Cold.MsPerNode()), stats.FormatMs(r.Closure.Warm.MsPerNode()),
			r.HitRate*100)
	}
	fmt.Fprintln(w)
}

// --- E13: workstation/server ---

// RemoteResult compares the same operations local vs over the page
// server, plus the R7 objects-per-second gate and (for the remote
// setting) the client's transport and fault-tolerance counters.
type RemoteResult struct {
	Setting      string
	Results      []OpResult
	WarmObjsPerS float64
	ColdObjsPerS float64

	// Client counters, remote setting only.
	HasClientStats bool
	Hits, Misses   uint64 // workstation cache
	Fetches        uint64 // pages fetched from the server
	Frames         uint64 // request frames sent (retries included)
	BatchFrames    uint64 // of which batched page fetches
	Retry          remote.RetryStats
	Inflight       remote.InflightStats
}

// RunRemote builds a database behind a page server, runs a traversal-
// heavy subset of the benchmark through a workstation client, and runs
// the identical subset on a local oodb for contrast.
func RunRemote(dir string, level int, seed int64, cfg Config) ([]RemoteResult, error) {
	subset := []string{"O1", "O5A", "O9", "O10", "O14"}

	// Local configuration.
	local, lay, _, err := Build(KindOODB, dir, level, seed)
	if err != nil {
		return nil, err
	}
	defer local.Close()
	localRes, err := Run(local, lay, Config{Iterations: cfg.Iterations, Seed: cfg.Seed, Depth: cfg.Depth, Ops: subset})
	if err != nil {
		return nil, err
	}

	// Server-backed configuration.
	st, err := store.Open(filepath.Join(dir, "remote.db"), nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	srv := remote.NewServer(st)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	client, err := remote.Dial(addr.String(), remote.ClientOptions{
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	rdb, err := oodb.New(client, oodb.DefaultOptions())
	if err != nil {
		return nil, err
	}
	defer rdb.Close()
	rlay, _, err := hyper.Generate(rdb, hyper.GenConfig{LeafLevel: level, Seed: seed})
	if err != nil {
		return nil, err
	}
	remoteRes, err := Run(rdb, rlay, Config{Iterations: cfg.Iterations, Seed: cfg.Seed, Depth: cfg.Depth, Ops: subset})
	if err != nil {
		return nil, err
	}

	remoteRow := RemoteResult{
		Setting: "remote (DBMS on page server)", Results: remoteRes,
		HasClientStats: true, Retry: client.RetryStats(),
		Inflight: client.InflightStats(),
	}
	remoteRow.Hits, remoteRow.Misses, remoteRow.Fetches = client.CacheStats()
	remoteRow.Frames, remoteRow.BatchFrames = client.FrameStats()
	out := []RemoteResult{
		{Setting: "local (DBMS on workstation)", Results: localRes},
		remoteRow,
	}
	for i := range out {
		// R7: objects per second from the closure1N row (one object
		// activation per node).
		for _, r := range out[i].Results {
			if r.ID == "O10" {
				if msgo := r.Warm.MsPerNode(); msgo > 0 {
					out[i].WarmObjsPerS = 1000 / msgo
				}
				if msgo := r.Cold.MsPerNode(); msgo > 0 {
					out[i].ColdObjsPerS = 1000 / msgo
				}
			}
		}
	}
	return out, nil
}

// RenderRemote writes the E13 tables.
func RenderRemote(w io.Writer, results []RemoteResult) {
	for _, r := range results {
		RenderOperations(w, "E13: "+r.Setting, r.Results)
		fmt.Fprintf(w, "R7 gate (100–10,000 objects/s): cold %.0f obj/s, warm %.0f obj/s\n",
			r.ColdObjsPerS, r.WarmObjsPerS)
		if r.HasClientStats {
			fmt.Fprintf(w, "workstation cache: %d hits, %d misses, %d server fetches\n",
				r.Hits, r.Misses, r.Fetches)
			fmt.Fprintf(w, "transport: %d frames (%d batched)\n", r.Frames, r.BatchFrames)
			fmt.Fprintf(w, "fault tolerance: %d reconnects, %d retries, %d downgrades, "+
				"%d commit checks, %d commit resends, %d commit unknowns\n",
				r.Retry.Reconnects, r.Retry.Retries, r.Retry.Downgrades,
				r.Retry.CommitChecks, r.Retry.CommitResends, r.Retry.CommitUnknowns)
			fmt.Fprintf(w, "pipelining: max depth %d, queue wait %s, %d unknown responses\n",
				r.Inflight.MaxDepth, r.Inflight.QueueWait.Round(time.Microsecond),
				r.Inflight.UnknownResponses)
			for _, op := range r.Inflight.Ops {
				fmt.Fprintf(w, "  %-12s %8d round trips, mean %s\n",
					op.Op, op.Count, op.Mean().Round(time.Microsecond))
			}
		}
		fmt.Fprintln(w)
	}
}

// --- E14: extensions (R4, R5, R11) ---

// ExtensionResult is one timed §6.8 extension exercise.
type ExtensionResult struct {
	Name    string
	PerOpMs float64
	Note    string
}

// RunExtensions times the three §6.8 extension exercises on an oodb
// database.
func RunExtensions(dir string, level int, seed int64) ([]ExtensionResult, error) {
	db, lay, _, err := Build(KindOODB, dir, level, seed)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(seed))
	var out []ExtensionResult
	timeIt := func(name, note string, n int, fn func(i int) error) error {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		if err := db.Commit(); err != nil {
			return err
		}
		out = append(out, ExtensionResult{
			Name:    name,
			PerOpMs: float64(time.Since(start).Nanoseconds()) / 1e6 / float64(n),
			Note:    note,
		})
		return nil
	}

	// (1) Schema modification: add DrawNode, an attribute, and values.
	sm := db.(hyper.SchemaModifier)
	kind, err := sm.AddClass("DrawNode")
	if err != nil {
		return nil, err
	}
	if err := sm.AddAttribute(kind, "circles"); err != nil {
		return nil, err
	}
	if err := timeIt("R4: set dynamic attribute", "new attribute on existing nodes", 50, func(i int) error {
		return sm.SetAttr(lay.RandomNode(rng), "circles", int64(i))
	}); err != nil {
		return nil, err
	}

	// (2) Versions: capture, previous, snapshot-at-time.
	vs := version.New(db)
	targets := make([]hyper.NodeID, 50)
	for i := range targets {
		targets[i] = lay.RandomNode(rng)
	}
	if err := timeIt("R5: create new version", "capture node state", 50, func(i int) error {
		_, err := vs.Capture(targets[i])
		return err
	}); err != nil {
		return nil, err
	}
	if err := timeIt("R5: find previous version", "read back the chain head", 50, func(i int) error {
		_, _, err := vs.Previous(targets[i])
		return err
	}); err != nil {
		return nil, err
	}

	// (3) Access control: protect a document, verify enforcement.
	doc := lay.RandomAtLevel(rng, 1)
	if err := timeIt("R11: set document policy", "public read-only subtree", 1, func(int) error {
		return acl.SetPolicy(db, doc, acl.Policy{Public: acl.Read})
	}); err != nil {
		return nil, err
	}
	guard := acl.NewGuard(db, "public")
	kids, err := db.Children(doc)
	if err != nil {
		return nil, err
	}
	if err := timeIt("R11: guarded read", "read inside protected document", 50, func(i int) error {
		_, err := guard.Hundred(kids[i%len(kids)])
		return err
	}); err != nil {
		return nil, err
	}
	denied := 0
	if err := timeIt("R11: guarded write (denied)", "write must be rejected", 50, func(i int) error {
		if err := guard.SetHundred(kids[i%len(kids)], 1); err != nil {
			denied++
			return nil
		}
		return fmt.Errorf("acl: write was not denied")
	}); err != nil {
		return nil, err
	}
	if denied != 50 {
		return nil, fmt.Errorf("harness: expected 50 denials, got %d", denied)
	}
	return out, nil
}

// RenderExtensions writes the E14 table.
func RenderExtensions(w io.Writer, results []ExtensionResult) {
	title := "E14: §6.8 extension operations (oodb)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-32s %10s  %s\n", "exercise", "ms/op", "note")
	for _, r := range results {
		fmt.Fprintf(w, "%-32s %10s  %s\n", r.Name, stats.FormatMs(r.PerOpMs), r.Note)
	}
	fmt.Fprintln(w)
}

// --- E17: single-writer/multi-reader read throughput ---

// ThroughputResult is one reader-count configuration of E17: the same
// reader workload measured against the serialized baseline (one global
// lock around every operation, including the writer's commit — how the
// engine behaved before the concurrent read path) and against the
// concurrent engine (readers over store.ReadView, writer on its own
// writeMu).
type ThroughputResult struct {
	Readers int
	Window  time.Duration

	SerializedOps     uint64
	SerializedCommits uint64
	ConcurrentOps     uint64
	ConcurrentCommits uint64

	SerializedOpsPerS float64
	ConcurrentOpsPerS float64
	Speedup           float64 // concurrent / serialized reader ops/s
}

// RunThroughput measures aggregate read throughput under an active
// writer. One oodb database is generated on a local store; a writer
// goroutine loops SetHundred+Commit (each commit fsyncs the WAL), and N
// reader goroutines — each its own oodb mapping over a read-only
// store.ReadView, all sharing the warm buffer pool — run a mixed
// O1/O5A/O6/O7A lookup workload for a fixed window.
//
// Each reader count is measured twice. The serialized baseline routes
// every reader operation and the writer's whole transaction through one
// global mutex, reproducing the pre-refactor engine where a reader
// could not even begin while a commit held the store lock across its
// fsync. The concurrent configuration is the real engine: readers wrap
// each operation in ReadView.Atomically and never wait for the writer.
// The speedup column is the direct price of that global lock.
func RunThroughput(dir string, level int, seed int64, maxParallel int, window time.Duration) ([]ThroughputResult, error) {
	if maxParallel < 1 {
		maxParallel = 1
	}
	if window <= 0 {
		window = time.Second
	}
	st, err := store.Open(filepath.Join(dir, "throughput.db"), nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	wdb, err := oodb.New(st, oodb.DefaultOptions())
	if err != nil {
		return nil, err
	}
	lay, _, err := hyper.Generate(wdb, hyper.GenConfig{LeafLevel: level, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := wdb.Commit(); err != nil {
		return nil, err
	}

	workload := func(b hyper.Backend, rng *rand.Rand) error {
		var err error
		switch rng.Intn(4) {
		case 0:
			_, err = hyper.NameLookup(b, lay.RandomNode(rng))
		case 1:
			_, err = hyper.GroupLookup1N(b, lay.RandomInternal(rng))
		case 2:
			_, err = hyper.GroupLookupMNAtt(b, lay.RandomNode(rng))
		default:
			_, err = hyper.RefLookup1N(b, lay.RandomNonRoot(rng))
		}
		return err
	}

	// Warm the shared buffer pool so every configuration measures
	// in-memory reads, not its own first-touch disk misses.
	warm, err := oodb.New(st.ReadView(), oodb.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if _, err := hyper.SeqScan(warm, 1, hyper.NodeID(lay.Total())); err != nil {
		return nil, err
	}
	wrng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2000; i++ {
		if err := workload(warm, wrng); err != nil {
			return nil, err
		}
	}

	// The writer flips one node's hundred attribute so every commit has
	// a real dirty set and a real WAL fsync.
	writerTarget := lay.RandomNode(rand.New(rand.NewSource(seed + 99)))

	measure := func(n int, serialized bool) (readerOps, commits uint64, err error) {
		views := make([]*store.ReadView, n)
		readers := make([]hyper.Backend, n)
		for g := range readers {
			views[g] = st.ReadView()
			r, err := oodb.New(views[g], oodb.DefaultOptions())
			if err != nil {
				return 0, 0, err
			}
			readers[g] = r
		}
		var gmu sync.Mutex // the serialized baseline's global lock
		var ops, committed atomic.Uint64
		stop := make(chan struct{})
		errs := make(chan error, n+1)
		var wg sync.WaitGroup

		wg.Add(1)
		go func() { // the writer
			defer wg.Done()
			v := int32(0)
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				commit := func() error {
					if err := wdb.SetHundred(writerTarget, v); err != nil {
						return err
					}
					return wdb.Commit()
				}
				if serialized {
					gmu.Lock()
					err = commit()
					gmu.Unlock()
				} else {
					err = commit()
				}
				if err != nil {
					errs <- fmt.Errorf("writer: %w", err)
					return
				}
				v = (v + 1) % 100
				committed.Add(1)
			}
		}()
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(g)*7919 + 1))
				for {
					select {
					case <-stop:
						errs <- nil
						return
					default:
					}
					var err error
					if serialized {
						gmu.Lock()
						err = workload(readers[g], rng)
						gmu.Unlock()
					} else {
						err = views[g].Atomically(func() error {
							return workload(readers[g], rng)
						})
					}
					if err != nil {
						errs <- fmt.Errorf("reader %d: %w", g, err)
						return
					}
					ops.Add(1)
				}
			}(g)
		}
		time.Sleep(window)
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return 0, 0, err
			}
		}
		return ops.Load(), committed.Load(), nil
	}

	var parallels []int
	for n := 1; n < maxParallel; n *= 2 {
		parallels = append(parallels, n)
	}
	parallels = append(parallels, maxParallel)

	var out []ThroughputResult
	for _, n := range parallels {
		sOps, sCommits, err := measure(n, true)
		if err != nil {
			return nil, err
		}
		cOps, cCommits, err := measure(n, false)
		if err != nil {
			return nil, err
		}
		row := ThroughputResult{
			Readers: n, Window: window,
			SerializedOps: sOps, SerializedCommits: sCommits,
			ConcurrentOps: cOps, ConcurrentCommits: cCommits,
			SerializedOpsPerS: float64(sOps) / window.Seconds(),
			ConcurrentOpsPerS: float64(cOps) / window.Seconds(),
		}
		if sOps > 0 {
			row.Speedup = float64(cOps) / float64(sOps)
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderThroughput writes the E17 table.
func RenderThroughput(w io.Writer, level int, results []ThroughputResult) {
	title := fmt.Sprintf("E17: read throughput under an active writer (oodb, level %d)", level)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-9s %16s %16s %9s %12s %12s\n",
		"readers", "serialized op/s", "concurrent op/s", "speedup", "ser. txn/s", "conc. txn/s")
	for _, r := range results {
		secs := r.Window.Seconds()
		fmt.Fprintf(w, "%-9d %16.0f %16.0f %8.1fx %12.0f %12.0f\n",
			r.Readers, r.SerializedOpsPerS, r.ConcurrentOpsPerS, r.Speedup,
			float64(r.SerializedCommits)/secs, float64(r.ConcurrentCommits)/secs)
	}
	fmt.Fprintln(w)
}

// --- E15: multi-user ---

// MultiUserResult is one concurrency configuration.
type MultiUserResult struct {
	Users       int
	Conflicting bool
	Ops         int
	Elapsed     time.Duration
	Aborts      uint64
}

// RunMultiUser runs the §7 future-work experiment: several HyperModel
// applications against one server, first updating disjoint subtrees
// (cooperation, R9), then hammering one node (contention). Optimistic
// validation aborts and retries make both terminate correctly.
func RunMultiUser(dir string, level int, seed int64, users, opsPerUser int) ([]MultiUserResult, error) {
	st, err := store.Open(filepath.Join(dir, "multi.db"), nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	srv := remote.NewServer(st)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	boot, err := remote.Dial(addr.String(), remote.ClientOptions{})
	if err != nil {
		return nil, err
	}
	bdb, err := oodb.New(boot, oodb.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if _, _, err := hyper.Generate(bdb, hyper.GenConfig{LeafLevel: level, Seed: seed}); err != nil {
		return nil, err
	}
	if err := bdb.Commit(); err != nil {
		return nil, err
	}
	bdb.Close()

	runConfig := func(conflicting bool) (MultiUserResult, error) {
		_, abortsBefore, _ := srv.Stats()
		var wg sync.WaitGroup
		errs := make(chan error, users)
		start := time.Now()
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				client, err := remote.Dial(addr.String(), remote.ClientOptions{})
				if err != nil {
					errs <- err
					return
				}
				db, err := oodb.New(client, oodb.DefaultOptions())
				if err != nil {
					errs <- err
					return
				}
				defer db.Close()
				rng := rand.New(rand.NewSource(seed + int64(u)))
				for i := 0; i < opsPerUser; i++ {
					var target hyper.NodeID
					if conflicting {
						target = 1 // everyone updates the root
					} else {
						// Disjoint level-1 subtrees per user.
						first, _ := hyper.LevelIDs(1)
						target = first + hyper.NodeID(u%hyper.FanOut)
					}
					err := txn.RunN(db, 300, func() error {
						h, err := db.Hundred(target)
						if err != nil {
							return err
						}
						return db.SetHundred(target, (h+1)%100)
					})
					if err != nil {
						errs <- fmt.Errorf("user %d: %w", u, err)
						return
					}
					_ = rng
				}
				errs <- nil
			}(u)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return MultiUserResult{}, err
			}
		}
		_, abortsAfter, _ := srv.Stats()
		return MultiUserResult{
			Users:       users,
			Conflicting: conflicting,
			Ops:         users * opsPerUser,
			Elapsed:     time.Since(start),
			Aborts:      abortsAfter - abortsBefore,
		}, nil
	}

	coop, err := runConfig(false)
	if err != nil {
		return nil, err
	}
	contended, err := runConfig(true)
	if err != nil {
		return nil, err
	}
	return []MultiUserResult{coop, contended}, nil
}

// RenderMultiUser writes the E15 table.
func RenderMultiUser(w io.Writer, results []MultiUserResult) {
	title := "E15: multi-user (optimistic concurrency over the page server)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-12s %-28s %8s %10s %10s %8s\n",
		"users", "workload", "txns", "elapsed", "txn/s", "aborts")
	for _, r := range results {
		kind := "disjoint subtrees (R9)"
		if r.Conflicting {
			kind = "single hot node (contended)"
		}
		rate := float64(r.Ops) / r.Elapsed.Seconds()
		fmt.Fprintf(w, "%-12d %-28s %8d %9.0fms %10.0f %8d\n",
			r.Users, kind, r.Ops, float64(r.Elapsed.Nanoseconds())/1e6, rate, r.Aborts)
	}
	fmt.Fprintln(w)
}

// --- E18: wire concurrency (pipelined client vs request/response) ---

// ConcurrencyResult is one client-count configuration of E18: the same
// random page-read workload driven by N application goroutines through
// one shared client, measured against the request/response baseline
// (one connection, one request in flight — the pre-multiplexed
// discipline) and against the pipelined client (a small connection
// pool with unbounded per-connection multiplexing).
type ConcurrencyResult struct {
	Clients int
	Window  time.Duration
	RTT     time.Duration // simulated link round trip (0 = raw loopback)

	BaselineOps  uint64
	PipelinedOps uint64

	BaselineOpsPerS  float64
	PipelinedOpsPerS float64
	Speedup          float64 // pipelined / baseline op/s

	// Pipelining stats from the pipelined configuration.
	MaxDepth    uint64        // peak requests in flight at once
	QueueWait   time.Duration // cumulative wait behind the in-flight cap
	GetPageMean time.Duration // mean GetPage round trip under load
}

// RunConcurrencySweep measures raw wire throughput under concurrency
// (E18). A level-`level` database is generated on a local store and
// put behind a page server; N goroutines then hammer Client.ReadPage
// over the store's whole page set for a fixed window — uncached reads,
// so every operation is a real server round trip and the experiment
// isolates the transport. The baseline client is configured back to
// the old request/response discipline (Conns=1, MaxInflight=1: every
// goroutine queues behind one outstanding request); the pipelined
// client spreads unbounded concurrent requests over a 4-connection
// pool. Same server, same pages, same goroutine count — the gap is the
// multiplexed wire protocol.
//
// rtt simulates the workstation/server link the paper's R6
// architecture assumes: the wire runs through a delay-line proxy
// adding rtt/2 of transit latency each way (order-preserving, no
// bandwidth cap — see fault.Config.Latency). On a real network the
// round trip is what a request/response protocol pays per operation
// and what pipelining hides; rtt=0 measures raw loopback, where the
// kernel's ~20µs round trip leaves almost nothing to hide.
func RunConcurrencySweep(dir string, level int, seed int64, clientCounts []int, window, rtt time.Duration) ([]ConcurrencyResult, error) {
	if window <= 0 {
		window = time.Second
	}
	st, err := store.Open(filepath.Join(dir, "concurrency.db"), nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	wdb, err := oodb.New(st, oodb.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if _, _, err := hyper.Generate(wdb, hyper.GenConfig{LeafLevel: level, Seed: seed}); err != nil {
		return nil, err
	}
	if err := wdb.Commit(); err != nil {
		return nil, err
	}
	pages := st.PageCount()
	if pages < 2 {
		return nil, fmt.Errorf("harness: store has %d pages, nothing to read", pages)
	}

	srv := remote.NewServer(st)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	dialAddr := addr.String()
	if rtt > 0 {
		px, err := fault.NewProxy(dialAddr, fault.Config{Latency: rtt / 2})
		if err != nil {
			return nil, err
		}
		defer px.Close()
		dialAddr = px.Addr()
	}

	measure := func(n int, opts remote.ClientOptions) (uint64, remote.InflightStats, error) {
		opts.RequestTimeout = 30 * time.Second
		c, err := remote.Dial(dialAddr, opts)
		if err != nil {
			return 0, remote.InflightStats{}, err
		}
		defer c.Close()
		var ops atomic.Uint64
		stop := make(chan struct{})
		errs := make(chan error, n)
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(g)*6151 + 1))
				for {
					select {
					case <-stop:
						errs <- nil
						return
					default:
					}
					// Page 0 is the store's metadata page; data pages
					// start at 1.
					id := 1 + rng.Uint64()%(pages-1)
					if _, _, err := c.ReadPage(page.ID(id)); err != nil {
						errs <- fmt.Errorf("reader %d: %w", g, err)
						return
					}
					ops.Add(1)
				}
			}(g)
		}
		time.Sleep(window)
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return 0, remote.InflightStats{}, err
			}
		}
		return ops.Load(), c.InflightStats(), nil
	}

	var out []ConcurrencyResult
	for _, n := range clientCounts {
		base, _, err := measure(n, remote.ClientOptions{Conns: 1, MaxInflight: 1})
		if err != nil {
			return nil, err
		}
		piped, inflight, err := measure(n, remote.ClientOptions{Conns: 4})
		if err != nil {
			return nil, err
		}
		row := ConcurrencyResult{
			Clients: n, Window: window, RTT: rtt,
			BaselineOps: base, PipelinedOps: piped,
			BaselineOpsPerS:  float64(base) / window.Seconds(),
			PipelinedOpsPerS: float64(piped) / window.Seconds(),
			MaxDepth:         inflight.MaxDepth,
			QueueWait:        inflight.QueueWait,
		}
		if base > 0 {
			row.Speedup = float64(piped) / float64(base)
		}
		for _, op := range inflight.Ops {
			if op.Op == "GetPage" {
				row.GetPageMean = op.Mean()
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderConcurrencySweep writes the E18 table.
func RenderConcurrencySweep(w io.Writer, level int, results []ConcurrencyResult) {
	link := "raw loopback"
	if len(results) > 0 && results[0].RTT > 0 {
		link = fmt.Sprintf("%s RTT link", results[0].RTT)
	}
	title := fmt.Sprintf("E18: wire throughput under concurrency (page server, level %d, %s)", level, link)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-9s %18s %16s %9s %10s %12s\n",
		"clients", "req/resp op/s", "pipelined op/s", "speedup", "max depth", "GetPage mean")
	for _, r := range results {
		fmt.Fprintf(w, "%-9d %18.0f %16.0f %8.1fx %10d %12s\n",
			r.Clients, r.BaselineOpsPerS, r.PipelinedOpsPerS, r.Speedup,
			r.MaxDepth, r.GetPageMean.Round(time.Microsecond))
	}
	fmt.Fprintln(w)
}

// --- E19: multi-writer commit throughput (group commit vs serialized) ---

// histBuckets is the number of power-of-two commit-latency buckets; the
// top bucket is open-ended.
const histBuckets = 16

// WritersResult is one writer-count configuration of E19: the same
// low-conflict update workload committed through the page server twice,
// once with the server's group commit disabled (every commit validates,
// logs and fsyncs alone — the pre-batching discipline) and once with
// commits batched under a leader (one WAL record and one fsync per
// batch).
type WritersResult struct {
	Writers int
	Window  time.Duration

	SerializedCommits uint64
	GroupedCommits    uint64

	SerializedPerS float64
	GroupedPerS    float64
	Speedup        float64 // grouped / serialized commit rate

	SerializedAborts uint64
	GroupedAborts    uint64

	// Group-commit evidence from the grouped configuration.
	Flushes     uint64 // durable WAL flushes that served the commits
	Batches     uint64 // flushes carrying more than one transaction
	GroupedTxns uint64 // transactions that shared a flush
	MaxBatch    uint64 // largest batch
	FastPath    uint64 // validations skipped via snapshot fast path

	// Commit-latency histograms: bucket i counts transactions whose
	// end-to-end commit (including conflict retries) took less than
	// 2^i microseconds; the last bucket is open-ended.
	SerializedHist [histBuckets]uint64
	GroupedHist    [histBuckets]uint64
}

// latBucket maps a commit latency to its power-of-two bucket.
func latBucket(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	b := bits.Len64(uint64(us))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// RunWriters measures multi-writer commit throughput (E19). A
// level-`level` database is generated on a syncing local store and put
// behind a page server; N writer clients then each run a read-modify-
// write transaction loop against their own TextNode for a fixed
// window. Each transaction reads the node's text and stores a one-byte
// rotation of it — a same-length in-place update, so the only page a
// writer dirties is its own node's data page (an attribute update
// would also rewrite the shared secondary-index page and turn the
// experiment into a conflict benchmark). Targets are spread across the
// leaf level so concurrent transactions never touch the same page: the
// workload is commit-rate bound, not conflict bound, and what it
// measures is the cost of durability per transaction. Serialized mode
// admits one commit at a
// time (each pays its own WAL flush); grouped mode lets each leader
// take the queued batch, validate against the in-batch overlay, retire
// the whole batch with one combined WAL record and one fsync, and hand
// leadership on.
func RunWriters(dir string, level int, seed int64, writerCounts []int, window time.Duration) ([]WritersResult, error) {
	if window <= 0 {
		window = time.Second
	}
	st, err := store.Open(filepath.Join(dir, "writers.db"), nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	srv := remote.NewServer(st)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	boot, err := remote.Dial(addr.String(), remote.ClientOptions{})
	if err != nil {
		return nil, err
	}
	bdb, err := oodb.New(boot, oodb.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if _, _, err := hyper.Generate(bdb, hyper.GenConfig{LeafLevel: level, Seed: seed}); err != nil {
		return nil, err
	}
	if err := bdb.Commit(); err != nil {
		return nil, err
	}
	bdb.Close()

	firstLeaf, lastLeaf := hyper.LevelIDs(level)
	leaves := int(lastLeaf - firstLeaf + 1)

	measure := func(n int, grouped bool) (commits, aborts uint64, hist [histBuckets]uint64, err error) {
		srv.SetGroupCommit(grouped)
		_, abortsBefore, _ := srv.Stats()
		var done atomic.Uint64
		var histAt [histBuckets]atomic.Uint64
		stop := make(chan struct{})
		errs := make(chan error, n)
		var wg sync.WaitGroup
		stride := leaves / n
		if stride < 1 {
			stride = 1
		}
		for u := 0; u < n; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				client, derr := remote.Dial(addr.String(), remote.ClientOptions{})
				if derr != nil {
					errs <- derr
					return
				}
				db, derr := oodb.New(client, oodb.DefaultOptions())
				if derr != nil {
					client.Close()
					errs <- derr
					return
				}
				defer db.Close()
				// Every 125th leaf is a FormNode; step past those so the
				// target always answers Text.
				j := (u * stride) % leaves
				if hyper.IsFormLeaf(j) {
					j = (j + 1) % leaves
				}
				target := firstLeaf + hyper.NodeID(j)
				for {
					select {
					case <-stop:
						errs <- nil
						return
					default:
					}
					start := time.Now()
					terr := txn.RunN(db, 300, func() error {
						text, herr := db.Text(target)
						if herr != nil {
							return herr
						}
						rot := make([]byte, len(text))
						copy(rot, text[1:])
						rot[len(rot)-1] = text[0]
						return db.SetText(target, string(rot))
					})
					if terr != nil {
						errs <- fmt.Errorf("writer %d: %w", u, terr)
						return
					}
					histAt[latBucket(time.Since(start))].Add(1)
					done.Add(1)
				}
			}(u)
		}
		time.Sleep(window)
		close(stop)
		wg.Wait()
		close(errs)
		for e := range errs {
			if e != nil {
				return 0, 0, hist, e
			}
		}
		_, abortsAfter, _ := srv.Stats()
		for i := range hist {
			hist[i] = histAt[i].Load()
		}
		return done.Load(), abortsAfter - abortsBefore, hist, nil
	}

	var out []WritersResult
	for _, n := range writerCounts {
		if n < 1 {
			continue
		}
		serCommits, serAborts, serHist, err := measure(n, false)
		if err != nil {
			return nil, err
		}
		fBefore, bBefore, gBefore, _, fpBefore := srv.GroupCommitStats()
		grpCommits, grpAborts, grpHist, err := measure(n, true)
		if err != nil {
			return nil, err
		}
		fAfter, bAfter, gAfter, maxBatch, fpAfter := srv.GroupCommitStats()
		row := WritersResult{
			Writers: n, Window: window,
			SerializedCommits: serCommits, GroupedCommits: grpCommits,
			SerializedPerS:   float64(serCommits) / window.Seconds(),
			GroupedPerS:      float64(grpCommits) / window.Seconds(),
			SerializedAborts: serAborts, GroupedAborts: grpAborts,
			Flushes: fAfter - fBefore, Batches: bAfter - bBefore,
			GroupedTxns: gAfter - gBefore, MaxBatch: maxBatch,
			FastPath:       fpAfter - fpBefore,
			SerializedHist: serHist, GroupedHist: grpHist,
		}
		if serCommits > 0 {
			row.Speedup = float64(grpCommits) / float64(serCommits)
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderWriters writes the E19 table and the commit-latency histogram
// of the largest configuration.
func RenderWriters(w io.Writer, level int, results []WritersResult) {
	title := fmt.Sprintf("E19: multi-writer commit throughput (page server, level %d, syncing store)", level)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-9s %17s %14s %9s %9s %9s %10s %10s\n",
		"writers", "serialized txn/s", "grouped txn/s", "speedup", "flushes", "batches", "max batch", "aborts")
	for _, r := range results {
		fmt.Fprintf(w, "%-9d %17.0f %14.0f %8.1fx %9d %9d %10d %10d\n",
			r.Writers, r.SerializedPerS, r.GroupedPerS, r.Speedup,
			r.Flushes, r.Batches, r.MaxBatch, r.GroupedAborts)
	}
	if len(results) == 0 {
		fmt.Fprintln(w)
		return
	}
	last := results[len(results)-1]
	fmt.Fprintf(w, "\ncommit latency, %d writers (count per power-of-two bucket)\n", last.Writers)
	fmt.Fprintf(w, "%-12s %12s %12s\n", "latency <", "serialized", "grouped")
	for i := 0; i < histBuckets; i++ {
		if last.SerializedHist[i] == 0 && last.GroupedHist[i] == 0 {
			continue
		}
		label := fmt.Sprintf("%dµs", uint64(1)<<i)
		if i == histBuckets-1 {
			label = "more"
		}
		fmt.Fprintf(w, "%-12s %12d %12d\n", label, last.SerializedHist[i], last.GroupedHist[i])
	}
	fmt.Fprintln(w)
}

package main

// adapter.go is the only file of the benchmark that imports the
// repository's packages. Every constructor, operation, counter accessor
// and probed function is called from here, so a rename inside the
// engine is a one-file fix and the rest of bench/ is plain stdlib.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	"hypermodel/internal/backend/memdb"
	"hypermodel/internal/backend/oodb"
	"hypermodel/internal/backend/reldb"
	"hypermodel/internal/btree"
	"hypermodel/internal/hyper"
	"hypermodel/internal/objstore"
	"hypermodel/internal/remote"
	"hypermodel/internal/storage/buffer"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/pager"
	"hypermodel/internal/storage/slotted"
	"hypermodel/internal/storage/store"
	"hypermodel/internal/storage/vfs"
	"hypermodel/internal/storage/wal"
	"hypermodel/internal/txn"
)

const pageSize = page.Size

// closureDepth is the paper's bound on the M-N attribute closures.
const closureDepth = 25

// writerRetries is E19's optimistic-retry budget per transaction.
const writerRetries = 300

// ---- seams ------------------------------------------------------------

// tracedFS interposes the tracer at store.Options.FS.
type tracedFS struct {
	inner vfs.FS
	tr    *tracer
}

func (f tracedFS) Open(name string) (vfs.File, error) {
	in, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return f.tr.wrapFile(name, in), nil
}

func fsFor(tr *tracer) vfs.FS {
	if tr == nil {
		return vfs.OS()
	}
	return tracedFS{vfs.OS(), tr}
}

// ---- targets ----------------------------------------------------------

// target is one workload's system under test plus its answer oracle.
type target struct {
	sp     spec
	b      hyper.Backend // what the basket runs on
	lay    hyper.Layout
	oracle hyper.Backend // same-seed volatile memdb
	st     *store.Store  // the embedded store, or the server's
	srv    *remote.Server
	client *remote.Client
	addr   string
	tr     *tracer
}

// openTarget generates the workload's database under dir and, for the
// remote workloads, serves it on loopback and dials one client.
func openTarget(sp spec, dir string, seed int64, tr *tracer) (*target, error) {
	t := &target{sp: sp, tr: tr}
	opts := &store.Options{PoolPages: sp.poolPages, NoSync: !sp.sync, FS: fsFor(tr)}
	st, err := store.Open(filepath.Join(dir, sp.name+".db"), opts)
	if err != nil {
		return nil, err
	}
	t.st = st
	var local hyper.Backend
	if sp.relational {
		local, err = reldb.New(st)
	} else {
		local, err = oodb.New(st, oodb.DefaultOptions())
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	cfg := hyper.GenConfig{LeafLevel: sp.level, Seed: seed}
	if t.lay, _, err = hyper.Generate(local, cfg); err != nil {
		st.Close()
		return nil, fmt.Errorf("generate %s: %w", sp.name, err)
	}
	t.b = local

	if sp.remote {
		// The generating backend is dropped, not closed: closing it
		// would close the store the server is about to own.
		if err := t.serve(); err != nil {
			st.Close()
			return nil, err
		}
	}

	t.oracle, err = memdb.Open("")
	if err != nil {
		t.close()
		return nil, err
	}
	if _, _, err := hyper.Generate(t.oracle, cfg); err != nil {
		t.close()
		return nil, fmt.Errorf("generate oracle: %w", err)
	}
	return t, nil
}

func (t *target) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.addr = ln.Addr().String()
	t.srv = remote.NewServer(t.st)
	if t.tr != nil {
		ln = t.tr.wrapListener(ln)
	}
	t.srv.Serve(ln)
	var parent *spanRef
	if t.tr != nil {
		parent = &t.tr.cur
	}
	t.client, err = t.dial(parent)
	if err != nil {
		t.srv.Close()
		return err
	}
	t.b, err = oodb.New(t.client, oodb.DefaultOptions())
	if err != nil {
		t.client.Close()
		t.srv.Close()
	}
	return err
}

// dial opens one single-connection client; under tracing its conn
// records wire spans parented to whatever *parent names.
func (t *target) dial(parent *spanRef) (*remote.Client, error) {
	opts := remote.ClientOptions{Conns: 1, RequestTimeout: 30 * time.Second}
	if t.tr != nil {
		opts.Dialer = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return t.tr.wrapConn(c, parent), nil
		}
	}
	return remote.Dial(t.addr, opts)
}

func (t *target) close() error {
	var err error
	if t.client != nil {
		err = errors.Join(err, t.client.Close())
	}
	if t.srv != nil {
		err = errors.Join(err, t.srv.Close())
	}
	return errors.Join(err, t.st.Close())
}

// drop empties every cache the client side controls (untimed).
func (t *target) drop() error { return t.b.DropCaches() }

// dbBytesPerNode is the stored size of the database per generated node.
func (t *target) dbBytesPerNode() float64 {
	return float64(t.st.PageCount()) * pageSize / float64(t.lay.Total())
}

// ---- counters ---------------------------------------------------------

// counters snapshots every public Stats() accessor the workload's
// layers offer; deltas of two snapshots are the per-layer counts.
func (t *target) counters() counters {
	var c counters
	s := t.st.Stats()
	c[cPoolHits], c[cPoolMisses], c[cEvictions] = s.Pool.Hits, s.Pool.Misses, s.Pool.Evictions
	c[cDiskReads], c[cDiskWrites] = s.DiskReads, s.DiskWrites
	c[cWALAppends], c[cWALSyncs], c[cCommits] = s.WALAppends, s.WALSyncs, s.Commits
	if t.client != nil {
		c[cCliHits], c[cCliMisses], c[cPagesFetched] = t.client.CacheStats()
		c[cFrames], c[cBatchedFrames] = t.client.FrameStats()
		for _, op := range t.client.InflightStats().Ops {
			c[cRoundTrips] += op.Count
		}
	}
	if t.srv != nil {
		c[cSrvCommits], c[cSrvAborts], c[cSrvFetches] = t.srv.Stats()
		c[cSrvFlushes], _, c[cSrvGrouped], c[cSrvMaxBatch], _ = t.srv.GroupCommitStats()
	}
	return c
}

// ---- operations -------------------------------------------------------

// opInput is one operation's seeded input.
type opInput struct {
	id, last hyper.NodeID
	oid      hyper.OID
	x        int32
	rect     hyper.Rect
	fwd      bool
}

// drawInput draws the input of one operation the way the paper's §6
// protocol does (internal/harness uses the same distributions).
func drawInput(lay hyper.Layout, k opKind, rng *rand.Rand) opInput {
	var in opInput
	switch k {
	case opO1, opO2, opO6, opO8:
		in.id = lay.RandomNode(rng)
	case opO3:
		in.x = int32(rng.Intn(hyper.HundredRange - hyper.HundredWindow + 1))
	case opO4:
		in.x = int32(rng.Intn(hyper.MillionRange - hyper.MillionWindow + 1))
	case opO5A, opO5B:
		in.id = lay.RandomInternal(rng)
	case opO7A, opO7B:
		in.id = lay.RandomNonRoot(rng)
	case opO9:
		in.id, in.last = lay.FirstID(), lay.LastID()
	case opO10, opO11, opO12, opO14, opO15, opO18:
		in.id = lay.RandomClosureStart(rng)
	case opO13:
		in.id = lay.RandomClosureStart(rng)
		in.x = int32(rng.Intn(hyper.MillionRange - hyper.MillionWindow + 1))
	case opO16:
		in.id = lay.RandomTextNode(rng)
		in.fwd = true
	case opO17:
		in.id, _ = lay.RandomFormNode(rng)
		in.rect = hyper.Rect{
			X: rng.Intn(hyper.BitmapMinSide - 25), Y: rng.Intn(hyper.BitmapMinSide - 25),
			W: 25 + rng.Intn(26), H: 25 + rng.Intn(26),
		}
	}
	return in
}

// prepareOp does the untimed part of an operation: O2 needs the
// object identifier of the node it looks up.
func prepareOp(b hyper.Backend, k opKind, in *opInput) error {
	if k != opO2 {
		return nil
	}
	oid, err := b.OIDOf(in.id)
	in.oid = oid
	return err
}

// opResult is what an operation returned, kept undigested so that
// summing it stays outside the timed call.
type opResult struct {
	ids   []hyper.NodeID
	dists []hyper.NodeDist
	n     int
	val   int64
}

func (r opResult) nodes() int {
	switch {
	case r.dists != nil:
		return len(r.dists)
	case r.ids != nil:
		return len(r.ids)
	}
	return r.n
}

func (r opResult) digest() digest {
	d := digest{n: r.nodes(), sum: uint64(r.val)}
	for _, id := range r.ids {
		d.sum += uint64(id)
	}
	for _, nd := range r.dists {
		d.sum += uint64(nd.ID) + 31*uint64(nd.Dist)
	}
	return d
}

// execOp is the timed call: one operation through internal/hyper, the
// update and edit operations with their commit.
func execOp(b hyper.Backend, k opKind, in opInput) (opResult, error) {
	var r opResult
	var err error
	switch k {
	case opO1:
		var v int32
		v, err = hyper.NameLookup(b, in.id)
		r.n, r.val = 1, int64(v)
	case opO2:
		var v int32
		v, err = hyper.NameOIDLookup(b, in.oid)
		r.n, r.val = 1, int64(v)
	case opO3:
		r.ids, err = hyper.RangeLookupHundred(b, in.x)
	case opO4:
		r.ids, err = hyper.RangeLookupMillion(b, in.x)
	case opO5A:
		r.ids, err = hyper.GroupLookup1N(b, in.id)
	case opO5B:
		r.ids, err = hyper.GroupLookupMN(b, in.id)
	case opO6:
		r.ids, err = hyper.GroupLookupMNAtt(b, in.id)
	case opO7A:
		r.ids, err = hyper.RefLookup1N(b, in.id)
	case opO7B:
		r.ids, err = hyper.RefLookupMN(b, in.id)
	case opO8:
		r.ids, err = hyper.RefLookupMNAtt(b, in.id)
	case opO9:
		r.n, err = hyper.SeqScan(b, in.id, in.last)
	case opO10:
		r.ids, err = hyper.Closure1N(b, in.id)
	case opO11:
		r.val, r.n, err = hyper.Closure1NAttSum(b, in.id)
	case opO12:
		if r.n, err = hyper.Closure1NAttSet(b, in.id); err == nil {
			err = b.Commit()
		}
	case opO13:
		r.ids, err = hyper.Closure1NPred(b, in.id, in.x)
	case opO14:
		r.ids, err = hyper.ClosureMN(b, in.id)
	case opO15:
		r.ids, err = hyper.ClosureMNAtt(b, in.id, closureDepth)
	case opO16:
		r.n = 1
		if err = hyper.TextNodeEdit(b, in.id, in.fwd); err == nil {
			err = b.Commit()
		}
	case opO17:
		r.n = 1
		if err = hyper.FormNodeEdit(b, in.id, in.rect); err == nil {
			err = b.Commit()
		}
	case opO18:
		r.dists, err = hyper.ClosureMNAttLinkSum(b, in.id, closureDepth)
	default:
		err = fmt.Errorf("unknown operation %d", k)
	}
	return r, err
}

func hashBytes(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// contentDigest reads back what an edit wrote (untimed), so O16 and
// O17 are checked against the oracle like every read operation.
func contentDigest(b hyper.Backend, k opKind, in opInput) (uint64, error) {
	if k == opO16 {
		text, err := b.Text(in.id)
		return hashBytes([]byte(text)), err
	}
	bm, err := b.Form(in.id)
	if err != nil {
		return 0, err
	}
	return hashBytes(hyper.EncodeBitmap(bm)), nil
}

// ---- writers (E19's transaction) ----------------------------------------

// writerOut is what one writer client did.
type writerOut struct {
	latNs    []int64 // one whole read-modify-write transaction each
	attempts int     // transaction bodies run, retries included
	err      error
}

// writersRun is what the writers phase did.
type writersRun struct {
	outs    []writerOut
	wrong   int           // nodes that failed the rotation check
	elapsed time.Duration // first transaction's start to last commit's acknowledgement
	ctr     counters      // what the layers counted over exactly that interval
}

func rotate(text string, k int) string {
	if len(text) == 0 {
		return text
	}
	k %= len(text)
	return text[k:] + text[:k]
}

// runWriters runs w writer clients, each rotating its own TextNode by
// one byte per transaction under txn.RunN, for the window or, when
// that is zero, for txns transactions each. Afterwards every node is
// checked against its initial text rotated by the acknowledged commits
// and then restored, so the database does not drift.
func (t *target) runWriters(w int, window time.Duration, txns int) (writersRun, error) {
	var run writersRun
	first, last := t.lay.LevelIDs(t.lay.LeafLevel)
	leaves := int(last - first + 1)
	stride := leaves / w
	targets := make([]hyper.NodeID, w)
	initial := make([]string, w)
	for u := range targets {
		j := (u * stride) % leaves
		if hyper.IsFormLeaf(j) {
			j = (j + 1) % leaves
		}
		targets[u] = first + hyper.NodeID(j)
		var err error
		if initial[u], err = t.b.Text(targets[u]); err != nil {
			return run, err
		}
	}

	run.outs = make([]writerOut, w)
	c0 := t.counters()
	start := time.Now()
	more := func(acked int) bool { return acked < txns }
	if window > 0 {
		more = func(int) bool { return time.Since(start) < window }
	}
	var wg sync.WaitGroup
	for u := 0; u < w; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			run.outs[u] = t.writer(u, targets[u], more)
		}(u)
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	run.ctr = t.counters().sub(c0)
	for u, o := range run.outs {
		if o.err != nil {
			return run, fmt.Errorf("writer %d: %w", u, o.err)
		}
	}

	// Check through the basket client, from the server's state.
	if err := t.b.DropCaches(); err != nil {
		return run, err
	}
	for u, id := range targets {
		got, err := t.b.Text(id)
		if err != nil {
			return run, err
		}
		if got != rotate(initial[u], len(run.outs[u].latNs)) {
			run.wrong++
		}
		if err := t.b.SetText(id, initial[u]); err != nil {
			return run, err
		}
	}
	return run, t.b.Commit()
}

func (t *target) writer(u int, node hyper.NodeID, more func(acked int) bool) (out writerOut) {
	var cur spanRef
	var parent *spanRef
	if t.tr != nil {
		parent = &cur
	}
	client, err := t.dial(parent)
	if err != nil {
		out.err = err
		return out
	}
	defer client.Close()
	db, err := oodb.New(client, oodb.DefaultOptions())
	if err != nil {
		out.err = err
		return out
	}
	for more(len(out.latNs)) {
		var id uint64
		if t.tr != nil {
			id = t.tr.newID()
			cur.Store(id)
		}
		start := time.Now()
		err := txn.RunN(db, writerRetries, func() error {
			out.attempts++
			text, err := db.Text(node)
			if err != nil {
				return err
			}
			return db.SetText(node, rotate(text, 1))
		})
		end := time.Now()
		if err != nil {
			out.err = err
			return out
		}
		out.latNs = append(out.latNs, end.Sub(start).Nanoseconds())
		if t.tr != nil {
			t.tr.root(id, len(out.latNs), u, -1, 0, start, end)
		}
	}
	return out
}

// ---- probes -----------------------------------------------------------

// probeFn times one batch of calls and returns the nanoseconds they
// took and how many items they covered; housekeeping between batches
// stays outside the measurement.
type probeFn func() (ns int64, items int, err error)

// probe is one isolated loop over a layer's public functions; its
// metric is nanoseconds per item divided by div (1000 for µs).
type probe struct {
	name string
	unit string
	div  float64
	run  probeFn
}

// probeGroup builds one layer's fixture and returns its probes.
type probeGroup struct {
	layer string
	setup func(dir string, seed int64) (probes []probe, done func(), err error)
}

// timed runs fn n times between two clock reads.
func timed(n int, fn func(i int) error) (int64, int, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start).Nanoseconds(), n, nil
}

// timedThen is timed followed by untimed housekeeping.
func timedThen(n int, fn func(i int) error, then func() error) (int64, int, error) {
	ns, n, err := timed(n, fn)
	if err != nil {
		return 0, 0, err
	}
	return ns, n, then()
}

// fixturePages is the level-5 oodb database's size, the fixture every
// storage probe is sized to; fixtureKeys is the level-5 node count.
const (
	fixturePages = 708
	fixtureKeys  = 3906
)

func randomPage(rng *rand.Rand) *page.Page {
	pg := page.New(page.TypeSlotted)
	rng.Read(pg.Payload())
	pg.UpdateChecksum()
	return pg
}

// openFixtureStore opens a store holding n committed pages and returns
// their IDs.
func openFixtureStore(path string, n, pool int, sync bool, rng *rand.Rand) (*store.Store, []page.ID, error) {
	st, err := store.Open(path, &store.Options{PoolPages: pool, NoSync: !sync})
	if err != nil {
		return nil, nil, err
	}
	ids := make([]page.ID, n)
	for i := range ids {
		id, h, err := st.Alloc(page.TypeSlotted)
		if err != nil {
			st.Close()
			return nil, nil, err
		}
		rng.Read(h.Page().Payload()[:256])
		h.Release()
		ids[i] = id
	}
	if err := st.Commit(); err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, ids, nil
}

func getRelease(sp store.Space, id page.ID) error {
	h, err := sp.Get(id)
	if err != nil {
		return err
	}
	h.Release()
	return nil
}

// touchCommit marks one page dirty and commits it, timing the commit.
func touchCommit(sp store.Space, id page.ID) (int64, int, error) {
	h, err := sp.Get(id)
	if err != nil {
		return 0, 0, err
	}
	h.MarkDirty()
	h.Release()
	return timed(1, func(int) error { return sp.Commit() })
}

func probeGroups() []probeGroup {
	return []probeGroup{
		{"page", probePage}, {"pager", probePager}, {"wal", probeWAL},
		{"buffer", probeBuffer}, {"store", probeStore}, {"slotted", probeSlotted},
		{"btree", probeBTree}, {"objstore", probeObjstore},
		{"oodb", probeOODB}, {"reldb", probeRelDB},
		{"hyper", probeHyper}, {"remote", probeRemote},
	}
}

func probePage(_ string, seed int64) ([]probe, func(), error) {
	pg := randomPage(rand.New(rand.NewSource(seed)))
	return []probe{
		{"page.seal_ns", "ns", 1, func() (int64, int, error) {
			return timed(64, func(int) error { pg.UpdateChecksum(); return nil })
		}},
		{"page.verify_ns", "ns", 1, func() (int64, int, error) {
			return timed(64, func(int) error {
				if !pg.VerifyChecksum() {
					return errors.New("sealed page does not verify")
				}
				return nil
			})
		}},
	}, func() {}, nil
}

func probePager(dir string, seed int64) ([]probe, func(), error) {
	pgr, err := pager.Open(filepath.Join(dir, "probe-pager.db"))
	if err != nil {
		return nil, nil, err
	}
	src := randomPage(rand.New(rand.NewSource(seed)))
	for i := 0; i < fixturePages; i++ {
		if err := pgr.Write(page.ID(i), src); err != nil {
			pgr.Close()
			return nil, nil, err
		}
	}
	var dst page.Page
	next := 0
	id := func() page.ID { next = (next + 1) % fixturePages; return page.ID(next) }
	return []probe{
		{"pager.read_ns", "ns", 1, func() (int64, int, error) {
			return timed(64, func(int) error { return pgr.Read(id(), &dst) })
		}},
		{"pager.read_noverify_ns", "ns", 1, func() (int64, int, error) {
			return timed(64, func(int) error { return pgr.ReadNoVerify(id(), &dst) })
		}},
		{"pager.write_ns", "ns", 1, func() (int64, int, error) {
			return timed(64, func(int) error { return pgr.Write(id(), src) })
		}},
	}, func() { pgr.Close() }, nil
}

func probeWAL(dir string, seed int64) ([]probe, func(), error) {
	log, err := wal.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return nil, nil, err
	}
	pg := randomPage(rand.New(rand.NewSource(seed)))
	var seq uint64
	// trim keeps the probe's log from growing without bound; the
	// truncation (an fsync) happens between timed batches.
	trim := func() error {
		if log.Size() < 4<<20 {
			return nil
		}
		return log.Truncate()
	}
	return []probe{
		{"wal.append_page_ns", "ns", 1, func() (int64, int, error) {
			return timedThen(16, func(i int) error { _, err := log.AppendPage(page.ID(i+1), pg); return err }, trim)
		}},
		{"wal.commit_nosync_ns", "ns", 1, func() (int64, int, error) {
			return timedThen(16, func(int) error { seq++; _, err := log.AppendCommitNoSync(seq); return err }, trim)
		}},
		{"wal.commit_sync_us", "us", 1000, func() (int64, int, error) {
			if _, err := log.AppendPage(1, pg); err != nil {
				return 0, 0, err
			}
			return timedThen(1, func(int) error { seq++; _, err := log.AppendCommit(seq); return err }, trim)
		}},
	}, func() { log.Close() }, nil
}

func probeBuffer(_ string, seed int64) ([]probe, func(), error) {
	img := randomPage(rand.New(rand.NewSource(seed)))
	warm := buffer.New(2048)
	for i := 1; i <= fixturePages; i++ {
		warm.Release(warm.Insert(page.ID(i), img))
	}
	// A full pool evicts one clean frame per insert of a new page.
	full := buffer.New(1024)
	nextID := page.ID(1)
	insert := func(int) error { full.Release(full.Insert(nextID, img)); nextID++; return nil }
	for i := 0; i < 1024; i++ {
		insert(i)
	}
	hit := 0
	return []probe{
		{"buffer.get_hit_ns", "ns", 1, func() (int64, int, error) {
			return timed(256, func(int) error {
				hit = hit%fixturePages + 1
				f := warm.Get(page.ID(hit))
				if f == nil {
					return errors.New("resident page missed")
				}
				warm.Release(f)
				return nil
			})
		}},
		{"buffer.insert_evict_ns", "ns", 1, func() (int64, int, error) { return timed(64, insert) }},
	}, func() {}, nil
}

func probeStore(dir string, seed int64) ([]probe, func(), error) {
	rng := rand.New(rand.NewSource(seed))
	warm, warmIDs, err := openFixtureStore(filepath.Join(dir, "probe-store.db"), fixturePages, 2048, false, rng)
	if err != nil {
		return nil, nil, err
	}
	// An 8-page pool, emptied, then cycled over 64 pages misses on
	// every Get: pread, verify, insert, evict.
	tiny, tinyIDs, err := openFixtureStore(filepath.Join(dir, "probe-store-miss.db"), 64, 8, false, rng)
	if err == nil {
		if err = tiny.DropCache(); err != nil {
			tiny.Close()
		}
	}
	if err != nil {
		warm.Close()
		return nil, nil, err
	}
	durable, durableIDs, err := openFixtureStore(filepath.Join(dir, "probe-store-sync.db"), 8, 64, true, rng)
	if err != nil {
		warm.Close()
		tiny.Close()
		return nil, nil, err
	}
	hit, miss := 0, 0
	nextHit := func() page.ID { hit = (hit + 1) % len(warmIDs); return warmIDs[hit] }
	return []probe{
		{"store.get_hit_ns", "ns", 1, func() (int64, int, error) {
			return timed(256, func(int) error { return getRelease(warm, nextHit()) })
		}},
		{"store.get_miss_us", "us", 1000, func() (int64, int, error) {
			return timed(16, func(int) error { miss = (miss + 1) % len(tinyIDs); return getRelease(tiny, tinyIDs[miss]) })
		}},
		{"store.commit_1page_nosync_us", "us", 1000, func() (int64, int, error) { return touchCommit(warm, nextHit()) }},
		{"store.commit_1page_sync_us", "us", 1000, func() (int64, int, error) { return touchCommit(durable, durableIDs[0]) }},
	}, func() { warm.Close(); tiny.Close(); durable.Close() }, nil
}

func probeSlotted(_ string, seed int64) ([]probe, func(), error) {
	rec := make([]byte, 100)
	rand.New(rand.NewSource(seed)).Read(rec)
	const recs = 30
	sp := slotted.Init(page.New(page.TypeSlotted))
	for i := 0; i < recs; i++ {
		if _, ok := sp.Insert(rec); !ok {
			return nil, nil, errors.New("slotted fixture does not fit")
		}
	}
	scratch := page.New(page.TypeSlotted)
	return []probe{
		{"slotted.get_ns", "ns", 1, func() (int64, int, error) {
			return timed(256, func(i int) error {
				if _, ok := sp.Get(i % recs); !ok {
					return errors.New("live slot missed")
				}
				return nil
			})
		}},
		{"slotted.insert_ns", "ns", 1, func() (int64, int, error) {
			s := slotted.Init(scratch)
			return timed(recs, func(int) error {
				if _, ok := s.Insert(rec); !ok {
					return errors.New("insert refused")
				}
				return nil
			})
		}},
	}, func() {}, nil
}

func openProbeStore(dir, name string) (*store.Store, error) {
	return store.Open(filepath.Join(dir, name), &store.Options{PoolPages: 2048, NoSync: true})
}

func probeBTree(dir string, seed int64) ([]probe, func(), error) {
	rng := rand.New(rand.NewSource(seed))
	st, err := openProbeStore(dir, "probe-btree.db")
	if err != nil {
		return nil, nil, err
	}
	tree, err := btree.Open(st, 0)
	for i := 1; err == nil && i <= fixtureKeys; i++ {
		err = tree.Put(btree.U64Key(uint64(i)), btree.U64Key(uint64(i)*7))
	}
	if err == nil {
		err = st.Commit()
	}
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	key := func() []byte { return btree.U64Key(uint64(1 + rng.Intn(fixtureKeys))) }
	return []probe{
		{"btree.get_ns", "ns", 1, func() (int64, int, error) {
			return timed(64, func(int) error {
				_, ok, err := tree.Get(key())
				if err == nil && !ok {
					err = errors.New("stored key missed")
				}
				return err
			})
		}},
		{"btree.put_ns", "ns", 1, func() (int64, int, error) {
			return timedThen(64, func(int) error { k := key(); return tree.Put(k, k) }, st.Commit)
		}},
		{"btree.scan_ns_per_key", "ns/key", 1, func() (int64, int, error) {
			seen := 0
			ns, _, err := timed(1, func(int) error {
				return tree.Scan(nil, nil, func(_, _ []byte) (bool, error) { seen++; return true, nil })
			})
			if err == nil && seen != fixtureKeys {
				err = fmt.Errorf("scan saw %d of %d keys", seen, fixtureKeys)
			}
			return ns, seen, err
		}},
	}, func() { st.Close() }, nil
}

func probeObjstore(dir string, seed int64) ([]probe, func(), error) {
	rng := rand.New(rand.NewSource(seed))
	st, err := openProbeStore(dir, "probe-objstore.db")
	if err != nil {
		return nil, nil, err
	}
	data := make([]byte, 120)
	rng.Read(data)
	oids := make([]objstore.OID, fixtureKeys)
	objs, err := objstore.Open(st, 0, 1, objstore.Options{Clustering: true})
	for i := 0; err == nil && i < len(oids); i++ {
		near := objstore.OID(0)
		if i > 0 {
			near = oids[(i-1)/5] // the fan-out-5 tree the generator clusters along
		}
		oids[i], err = objs.Put(data, near)
	}
	if err == nil {
		err = st.Commit()
	}
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	const batch = 31 // one level-5 closure
	oid := func() objstore.OID { return oids[rng.Intn(len(oids))] }
	return []probe{
		{"objstore.get_ns", "ns", 1, func() (int64, int, error) {
			return timed(64, func(int) error { _, err := objs.Get(oid()); return err })
		}},
		{"objstore.get_batch_ns_per_obj", "ns/obj", 1, func() (int64, int, error) {
			from := rng.Intn(len(oids) - batch)
			ns, _, err := timed(1, func(int) error { _, err := objs.GetBatch(oids[from : from+batch]); return err })
			return ns, batch, err
		}},
		{"objstore.update_ns", "ns", 1, func() (int64, int, error) {
			return timedThen(64, func(int) error { return objs.Update(oid(), data) }, st.Commit)
		}},
	}, func() { st.Close() }, nil
}

// probeLevel is the database size the backend, hyper and remote probes
// run on.
const probeLevel = 5

// backendProbes times single hyper.Backend calls on a warm level-5
// database of one mapping.
func backendProbes(prefix string, b hyper.Backend, lay hyper.Layout, seed int64) []probe {
	rng := rand.New(rand.NewSource(seed))
	const batch = 25
	first, _ := lay.LevelIDs(lay.LeafLevel - 1)
	room := hyper.NodesAtLevel(lay.LeafLevel-1) - batch
	frontier := make([]hyper.NodeID, batch)
	return []probe{
		{prefix + ".node_ns", "ns", 1, func() (int64, int, error) {
			return timed(64, func(int) error { _, err := b.Node(lay.RandomNode(rng)); return err })
		}},
		{prefix + ".children_ns", "ns", 1, func() (int64, int, error) {
			return timed(64, func(int) error { _, err := b.Children(lay.RandomInternal(rng)); return err })
		}},
		{prefix + ".children_batch_ns_per_node", "ns/node", 1, func() (int64, int, error) {
			from := first + hyper.NodeID(rng.Intn(room))
			for i := range frontier {
				frontier[i] = from + hyper.NodeID(i)
			}
			ns, _, err := timed(1, func(int) error { _, err := hyper.ChildrenBatch(b, frontier); return err })
			return ns, batch, err
		}},
		{prefix + ".refs_to_ns", "ns", 1, func() (int64, int, error) {
			return timed(64, func(int) error { _, err := b.RefsTo(lay.RandomNode(rng)); return err })
		}},
		{prefix + ".set_hundred_us", "us", 1000, func() (int64, int, error) {
			return timedThen(16, func(int) error {
				return b.SetHundred(lay.RandomNode(rng), int32(rng.Intn(hyper.HundredRange)))
			}, b.Commit)
		}},
	}
}

func probeBackend(name string, relational bool, dir string, seed int64) ([]probe, func(), error) {
	sp := spec{name: "probe-" + name, level: probeLevel, poolPages: 2048, relational: relational}
	t, err := openTarget(sp, dir, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	return backendProbes(name, t.b, t.lay, seed), func() { t.close() }, nil
}

func probeOODB(dir string, seed int64) ([]probe, func(), error) {
	return probeBackend("oodb", false, dir, seed)
}

func probeRelDB(dir string, seed int64) ([]probe, func(), error) {
	return probeBackend("reldb", true, dir, seed)
}

// probeHyper runs the traversal operations on volatile memdb: what is
// left is internal/hyper's own cost, the floor under every backend.
func probeHyper(_ string, seed int64) ([]probe, func(), error) {
	cfg := hyper.GenConfig{LeafLevel: probeLevel, Seed: seed}
	b, err := memdb.Open("")
	if err != nil {
		return nil, nil, err
	}
	lay, _, err := hyper.Generate(b, cfg)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	floor := func(name string, kinds ...opKind) probe {
		return probe{name, "ns/node", 1, func() (ns int64, nodes int, err error) {
			for _, k := range kinds {
				in := drawInput(lay, k, rng)
				start := time.Now()
				r, err := execOp(b, k, in)
				ns += time.Since(start).Nanoseconds()
				if err != nil {
					return 0, 0, err
				}
				nodes += max(1, r.nodes())
			}
			return ns, nodes, nil
		}}
	}
	return []probe{
		floor("hyper.closure1n_floor_ns_per_node", opO10, opO11, opO13),
		floor("hyper.closuremn_floor_ns_per_node", opO14, opO15, opO18),
		floor("hyper.scan_floor_ns_per_node", opO9),
		{"hyper.generate_s", "s", 1e9, func() (int64, int, error) {
			fresh, err := memdb.Open("")
			if err != nil {
				return 0, 0, err
			}
			return timed(1, func(int) error { _, _, err := hyper.Generate(fresh, cfg); return err })
		}},
	}, func() {}, nil
}

func probeRemote(dir string, seed int64) ([]probe, func(), error) {
	sp := spec{name: "probe-remote", level: probeLevel, poolPages: 2048, remote: true}
	t, err := openTarget(sp, dir, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	c := t.client
	pages := int(t.st.PageCount()) - 1
	const batch = 64
	ids := make([]page.ID, batch)
	next := 0
	id := func() page.ID { next = next%pages + 1; return page.ID(next) }
	return []probe{
		{"remote.ping_rtt_us", "us", 1000, func() (int64, int, error) {
			return timed(16, func(int) error { return c.Ping() })
		}},
		{"remote.readpage_rtt_us", "us", 1000, func() (int64, int, error) {
			return timed(16, func(int) error { _, _, err := c.ReadPage(id()); return err })
		}},
		{"remote.prefetch_us_per_page", "us/page", 1000, func() (int64, int, error) {
			if err := c.DropCache(); err != nil {
				return 0, 0, err
			}
			for i := range ids {
				ids[i] = id()
			}
			ns, _, err := timed(1, func(int) error { return c.Prefetch(ids) })
			return ns, batch, err
		}},
		{"remote.commit_1page_rtt_us", "us", 1000, func() (int64, int, error) { return touchCommit(c, id()) }},
	}, func() { t.close() }, nil
}

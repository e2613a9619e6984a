// Package oodb maps the HyperModel schema onto the repository's own
// object store — the architecture class of the OODBs the benchmark was
// written for (GemStone, Vbase):
//
//   - every node is one persistent object holding its attributes and
//     relationship collections, addressed by a system OID;
//   - a B+tree key index maps uniqueId → OID (the O1 path); O2 goes
//     straight through the object table;
//   - B+tree secondary indexes on hundred and million serve the range
//     lookups as covering index scans;
//   - the clustering near-hint places children next to their parents
//     along the 1-N hierarchy (§5.2), which is what makes closure1N
//     beat closureMN cold (E7) and what the E11 ablation switches off;
//   - all pages flow through the store's buffer pool, so DropCaches
//     produces genuine cold runs and Commit is WAL-durable.
package oodb

import (
	"errors"
	"fmt"
	"sync"

	"hypermodel/internal/btree"
	"hypermodel/internal/hyper"
	"hypermodel/internal/objstore"
	"hypermodel/internal/storage/store"
)

// Root slots used in the page store's root directory.
const (
	rootObjTable = iota
	rootObjMeta
	rootUniqueIdx
	rootHundredIdx
	rootMillionIdx
	rootBlobIdx
	rootCatalog
)

// Options configure the backend.
type Options struct {
	// Clustering enables placement of children near parents. On by
	// default in New; the E11 ablation disables it.
	Clustering bool
	// Scatter deliberately de-clusters object placement (see
	// objstore.Options.ScatterWindow); the E11 ablation's "no
	// clustering" configuration. Ignored when Clustering is true.
	Scatter bool
	// Store tunes the underlying page store (pool size, checkpointing).
	Store store.Options
}

// DefaultOptions enables clustering with default store tuning.
func DefaultOptions() Options { return Options{Clustering: true} }

// Space is what the backend needs from its page layer: the core page
// operations plus cache control and lifecycle. Both the local
// store.Store and the remote page-server client satisfy it, which is
// how the same object-database mapping runs in the workstation/server
// configuration (R6).
type Space interface {
	store.Space
	DropCache() error
	Abort() error
	Close() error
	CacheStats() (hits, misses, reads uint64)
}

// DB implements hyper.Backend over the object store.
type DB struct {
	st    Space
	objs  *objstore.Store
	uniq  *btree.Tree // uniqueId → OID
	hidx  *btree.Tree // (hundred, uniqueId) → nil
	midx  *btree.Tree // (million, uniqueId) → nil
	blobs *btree.Tree // blob name → blob OID
	cat   *btree.Tree // dynamic schema catalog

	// oidCache short-circuits uniqueId → OID resolution with mappings
	// read from storage: answers of uniq index probes, and the targets
	// of relationship sections handed to a caller, whose entries already
	// carry the target OIDs — navigating a returned relationship skips
	// the uniq index entirely, like a real OODB's pointer traversal.
	// Nodes are never deleted, so committed mappings cannot go stale; the
	// cache is dropped whenever a transaction's reads may have been
	// invalid (Abort, failed Commit) and on DropCaches, which promises a
	// genuinely cold next run.
	//
	// oidMu guards oidCache: reads learn mappings too, so even read-only
	// operations mutate the map and concurrent readers sharing one DB
	// would race without it.
	oidMu    sync.Mutex
	oidCache map[hyper.NodeID]uint64

	// ro is set when the space is a read-only view (a snapshot):
	// mutating entry points then fail with store.ErrReadOnly instead of
	// tripping the view's MarkDirty panic somewhere inside a B-tree
	// update.
	ro bool
}

var (
	_ hyper.DB             = (*DB)(nil)
	_ hyper.SchemaModifier = (*DB)(nil)
	_ hyper.StatsReporter  = (*DB)(nil)
)

// Open opens (or creates) an oodb database at path.
func Open(path string, opts Options) (*DB, error) {
	st, err := store.Open(path, &opts.Store)
	if err != nil {
		return nil, err
	}
	db, err := New(st, opts)
	if err != nil {
		st.Close()
		return nil, err
	}
	return db, nil
}

// New wires the object-database mapping over an existing page space
// (local store or remote page-server client).
func New(st Space, opts Options) (*DB, error) {
	oopts := objstore.Options{Clustering: opts.Clustering}
	if opts.Scatter && !opts.Clustering {
		oopts.ScatterWindow = 64
	}
	objs, err := objstore.Open(st, rootObjTable, rootObjMeta, oopts)
	if err != nil {
		return nil, err
	}
	uniq, err := btree.Open(st, rootUniqueIdx)
	if err != nil {
		return nil, err
	}
	hidx, err := btree.Open(st, rootHundredIdx)
	if err != nil {
		return nil, err
	}
	midx, err := btree.Open(st, rootMillionIdx)
	if err != nil {
		return nil, err
	}
	blobs, err := btree.Open(st, rootBlobIdx)
	if err != nil {
		return nil, err
	}
	cat, err := btree.Open(st, rootCatalog)
	if err != nil {
		return nil, err
	}
	db := &DB{st: st, objs: objs, uniq: uniq, hidx: hidx, midx: midx, blobs: blobs, cat: cat}
	if rv, ok := st.(interface{ ReadOnly() bool }); ok && rv.ReadOnly() {
		db.ro = true
	}
	return db, nil
}

// writable guards every mutating entry point: a DB opened over a
// read-only view (DB.Snapshot) rejects updates at the API boundary.
func (d *DB) writable() error {
	if d.ro {
		return store.ErrReadOnly
	}
	return nil
}

func (d *DB) Name() string { return "oodb" }

// Store exposes the underlying page space (harness diagnostics).
func (d *DB) Store() Space { return d.st }

// oidOf resolves a uniqueId to its OID: from the cache, or by a uniq
// index probe whose answer the cache then keeps.
func (d *DB) oidOf(id hyper.NodeID) (objstore.OID, error) {
	d.oidMu.Lock()
	oid, ok := d.oidCache[id]
	d.oidMu.Unlock()
	if ok {
		return objstore.OID(oid), nil
	}
	ok, err := d.uniq.View(btree.U64Key(uint64(id)), func(v []byte) error {
		oid = btree.U64FromKey(v)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: node %d", hyper.ErrNotFound, id)
	}
	d.remember(id, oid)
	return objstore.OID(oid), nil
}

// cacheLocked returns the OID cache, creating it on first use; the
// caller holds oidMu.
func (d *DB) cacheLocked() map[hyper.NodeID]uint64 {
	if d.oidCache == nil {
		d.oidCache = make(map[hyper.NodeID]uint64, 256)
	}
	return d.oidCache
}

// remember records one id→OID mapping read from storage.
func (d *DB) remember(id hyper.NodeID, oid uint64) {
	d.oidMu.Lock()
	d.cacheLocked()[id] = oid
	d.oidMu.Unlock()
}

// learn records the id→OID mappings of the relationship section an
// accessor is about to return: its targets are where the caller
// navigates next, so the following activations skip the uniq index.
// Only storage bytes feed the cache, so a hit is as authoritative as a
// uniq index probe. Sections nobody asked for are not learned (if they
// are navigated later, oidOf probes and keeps the answer), and an
// empty section takes no lock.
func (d *DB) learn(v objView, r relation) {
	n := int(v.n[r])
	if n == 0 {
		return
	}
	d.oidMu.Lock()
	cache := d.cacheLocked()
	for i := 0; i < n; i++ {
		oid, id := v.target(r, i)
		cache[id] = oid
	}
	d.oidMu.Unlock()
}

// view activates the object with the given OID: fn reads the validated
// record in place, under objstore.View's contract — the view is valid
// only until fn returns, and fn must not write to the database.
func (d *DB) view(oid objstore.OID, fn func(v objView) error) error {
	err := d.objs.View(oid, func(data []byte) error {
		v, err := parseObject(data)
		if err != nil {
			return err
		}
		return fn(v)
	})
	if errors.Is(err, objstore.ErrNotFound) {
		return fmt.Errorf("%w: oid %d", hyper.ErrNotFound, oid)
	}
	return err
}

// viewNode is view by uniqueId.
func (d *DB) viewNode(id hyper.NodeID, fn func(v objView) error) error {
	oid, err := d.oidOf(id)
	if err != nil {
		return err
	}
	return d.view(oid, fn)
}

// load materialises the node's whole object for a mutating path.
func (d *DB) load(id hyper.NodeID) (objstore.OID, *object, error) {
	oid, err := d.oidOf(id)
	if err != nil {
		return 0, nil, err
	}
	o, err := d.loadByOID(oid)
	return oid, o, err
}

func (d *DB) loadByOID(oid objstore.OID) (o *object, err error) {
	err = d.view(oid, func(v objView) error {
		o = v.object()
		return nil
	})
	return o, err
}

func (d *DB) storeObj(oid objstore.OID, o *object) error {
	return d.objs.Update(oid, encodeObject(o))
}

func (d *DB) create(n hyper.Node, text []byte, form []byte, near hyper.NodeID) error {
	if err := d.writable(); err != nil {
		return err
	}
	if _, ok, err := d.uniq.Get(btree.U64Key(uint64(n.ID))); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("oodb: node %d already exists", n.ID)
	}
	var nearOID objstore.OID
	if near != 0 {
		if oid, err := d.oidOf(near); err == nil {
			nearOID = oid
		}
	}
	o := &object{node: n, text: text, form: form}
	oid, err := d.objs.Put(encodeObject(o), nearOID)
	if err != nil {
		return err
	}
	if err := d.uniq.Put(btree.U64Key(uint64(n.ID)), btree.U64Key(uint64(oid))); err != nil {
		return err
	}
	if err := d.hidx.Put(btree.U32U64Key(uint32(n.Hundred), uint64(n.ID)), nil); err != nil {
		return err
	}
	return d.midx.Put(btree.U32U64Key(uint32(n.Million), uint64(n.ID)), nil)
}

// CreateNode stores an interior node, clustered near the given node.
func (d *DB) CreateNode(n hyper.Node, near hyper.NodeID) error {
	return d.create(n, nil, nil, near)
}

// CreateTextNode stores a TextNode leaf.
func (d *DB) CreateTextNode(n hyper.Node, text string, near hyper.NodeID) error {
	return d.create(n, []byte(text), nil, near)
}

// CreateFormNode stores a FormNode leaf.
func (d *DB) CreateFormNode(n hyper.Node, bm hyper.Bitmap, near hyper.NodeID) error {
	return d.create(n, nil, hyper.EncodeBitmap(bm), near)
}

// AddChild appends child to parent's ordered children.
func (d *DB) AddChild(parent, child hyper.NodeID) error {
	if err := d.writable(); err != nil {
		return err
	}
	pOID, p, err := d.load(parent)
	if err != nil {
		return err
	}
	cOID, c, err := d.load(child)
	if err != nil {
		return err
	}
	if c.parentOID != 0 {
		return fmt.Errorf("oodb: node %d already has a parent", child)
	}
	p.children = append(p.children, ref{uint64(cOID), child})
	if err := d.storeObj(pOID, p); err != nil {
		return err
	}
	c.parentOID = uint64(pOID)
	c.parentID = parent
	return d.storeObj(cOID, c)
}

// AddPart relates part to whole in the M-N aggregation.
func (d *DB) AddPart(whole, part hyper.NodeID) error {
	if err := d.writable(); err != nil {
		return err
	}
	wOID, w, err := d.load(whole)
	if err != nil {
		return err
	}
	pOID, p, err := d.load(part)
	if err != nil {
		return err
	}
	w.parts = append(w.parts, ref{uint64(pOID), part})
	if err := d.storeObj(wOID, w); err != nil {
		return err
	}
	p.partOf = append(p.partOf, ref{uint64(wOID), whole})
	return d.storeObj(pOID, p)
}

// AddRef stores a refTo/refFrom association with offsets.
func (d *DB) AddRef(e hyper.Edge) error {
	if err := d.writable(); err != nil {
		return err
	}
	fOID, f, err := d.load(e.From)
	if err != nil {
		return err
	}
	tOID, tObj, err := d.load(e.To)
	if err != nil {
		return err
	}
	f.refsTo = append(f.refsTo, edgeRef{uint64(tOID), e.To, e.OffsetFrom, e.OffsetTo})
	if err := d.storeObj(fOID, f); err != nil {
		return err
	}
	if e.From == e.To {
		// Self-edge: reload so we do not clobber the refsTo append.
		tObj, err = d.loadByOID(tOID)
		if err != nil {
			return err
		}
	}
	tObj.refsFrom = append(tObj.refsFrom, edgeRef{uint64(fOID), e.From, e.OffsetFrom, e.OffsetTo})
	return d.storeObj(tOID, tObj)
}

// Node returns a node's attributes.
func (d *DB) Node(id hyper.NodeID) (n hyper.Node, err error) {
	err = d.viewNode(id, func(v objView) error {
		n = v.node()
		return nil
	})
	return n, err
}

// Hundred returns the hundred attribute via the key index (O1's path).
func (d *DB) Hundred(id hyper.NodeID) (h int32, err error) {
	err = d.viewNode(id, func(v objView) error {
		h = v.hundred()
		return nil
	})
	return h, err
}

// SetHundred updates the attribute and maintains the secondary index.
func (d *DB) SetHundred(id hyper.NodeID, v int32) error {
	if err := d.writable(); err != nil {
		return err
	}
	oid, o, err := d.load(id)
	if err != nil {
		return err
	}
	if o.node.Hundred == v {
		return nil
	}
	if _, err := d.hidx.Delete(btree.U32U64Key(uint32(o.node.Hundred), uint64(id))); err != nil {
		return err
	}
	o.node.Hundred = v
	if err := d.storeObj(oid, o); err != nil {
		return err
	}
	return d.hidx.Put(btree.U32U64Key(uint32(v), uint64(id)), nil)
}

// OIDOf translates a uniqueId into the system OID.
func (d *DB) OIDOf(id hyper.NodeID) (hyper.OID, error) {
	oid, err := d.oidOf(id)
	return hyper.OID(oid), err
}

// HundredByOID is O2: direct object-table access, no key index.
func (d *DB) HundredByOID(oid hyper.OID) (h int32, err error) {
	err = d.view(objstore.OID(oid), func(v objView) error {
		h = v.hundred()
		return nil
	})
	return h, err
}

// RangeHundred is a covering scan of the hundred index.
func (d *DB) RangeHundred(lo, hi int32) ([]hyper.NodeID, error) {
	return scanAttrIndex(d.hidx, lo, hi)
}

// RangeMillion is a covering scan of the million index.
func (d *DB) RangeMillion(lo, hi int32) ([]hyper.NodeID, error) {
	return scanAttrIndex(d.midx, lo, hi)
}

func scanAttrIndex(t *btree.Tree, lo, hi int32) ([]hyper.NodeID, error) {
	var out []hyper.NodeID
	from := btree.U32U64Key(uint32(lo), 0)
	to := btree.U32U64Key(uint32(hi)+1, 0)
	err := t.Scan(from, to, func(k, _ []byte) (bool, error) {
		_, id := btree.U32U64FromKey(k)
		out = append(out, hyper.NodeID(id))
		return true, nil
	})
	return out, err
}

// related returns the uniqueIds one relationship section points at.
func (d *DB) related(id hyper.NodeID, r relation) (out []hyper.NodeID, err error) {
	err = d.viewNode(id, func(v objView) error {
		d.learn(v, r)
		out = v.ids(r)
		return nil
	})
	return out, err
}

// edges returns one association section as edges of the node.
func (d *DB) edges(id hyper.NodeID, r relation) (out []hyper.Edge, err error) {
	err = d.viewNode(id, func(v objView) error {
		d.learn(v, r)
		out = v.edges(r, id)
		return nil
	})
	return out, err
}

// Children returns the ordered children from the parent's object.
func (d *DB) Children(id hyper.NodeID) ([]hyper.NodeID, error) { return d.related(id, relChildren) }

// Parts returns the M-N parts.
func (d *DB) Parts(id hyper.NodeID) ([]hyper.NodeID, error) { return d.related(id, relParts) }

// PartOf returns the wholes this node is part of.
func (d *DB) PartOf(id hyper.NodeID) ([]hyper.NodeID, error) { return d.related(id, relPartOf) }

// RefsTo returns the outgoing association edges.
func (d *DB) RefsTo(id hyper.NodeID) ([]hyper.Edge, error) { return d.edges(id, relRefsTo) }

// RefsFrom returns the incoming association edges.
func (d *DB) RefsFrom(id hyper.NodeID) ([]hyper.Edge, error) { return d.edges(id, relRefsFrom) }

// Parent returns the 1-N parent.
func (d *DB) Parent(id hyper.NodeID) (parent hyper.NodeID, ok bool, err error) {
	err = d.viewNode(id, func(v objView) error {
		var oid uint64
		if oid, parent = v.parent(); oid != 0 {
			ok = true
			d.remember(parent, oid)
		}
		return nil
	})
	return parent, ok, err
}

// scanChunk is how many objects ScanTen activates per batch read.
const scanChunk = 256

// ScanTen walks the uniqueId index over [first, last] and activates
// the objects it names scanChunk at a time, through one batch read per
// chunk: one object-table walk and one pin per data page, instead of a
// table descent and a pin per object. Each chunk's nodes are visited in
// ascending uniqueId order once the chunk is read.
func (d *DB) ScanTen(first, last hyper.NodeID, visit func(hyper.NodeID, int32) bool) error {
	ids := make([]hyper.NodeID, 0, scanChunk)
	oids := make([]objstore.OID, 0, scanChunk)
	tens := make([]int32, scanChunk)
	// flush activates the pending chunk and visits it, reporting
	// whether the scan goes on.
	flush := func() (bool, error) {
		err := d.viewObjects(oids, func(i int, v objView) { tens[i] = v.ten() })
		var be *hyper.BatchError
		if errors.As(err, &be) {
			err = be.Err // a scan has no batch index to report
		}
		if err != nil {
			return false, err
		}
		for i, id := range ids {
			if !visit(id, tens[i]) {
				return false, nil
			}
		}
		ids, oids = ids[:0], oids[:0]
		return true, nil
	}
	from := btree.U64Key(uint64(first))
	to := btree.U64Key(uint64(last) + 1)
	more := true
	err := d.uniq.Scan(from, to, func(k, v []byte) (bool, error) {
		ids = append(ids, hyper.NodeID(btree.U64FromKey(k)))
		oids = append(oids, objstore.OID(btree.U64FromKey(v)))
		if len(ids) < scanChunk {
			return true, nil
		}
		var err error
		more, err = flush()
		return more, err
	})
	if err != nil || !more {
		return err
	}
	_, err = flush()
	return err
}

// wrongKind is the error for content access to a node of another kind.
func wrongKind(id hyper.NodeID, got hyper.Kind) error {
	return fmt.Errorf("%w: node %d is %s", hyper.ErrWrongKind, id, got)
}

// contentNode materialises a leaf of the wanted kind for an edit.
func (d *DB) contentNode(id hyper.NodeID, want hyper.Kind) (objstore.OID, *object, error) {
	oid, o, err := d.load(id)
	if err != nil {
		return 0, nil, err
	}
	if o.node.Kind != want {
		return 0, nil, wrongKind(id, o.node.Kind)
	}
	return oid, o, nil
}

// Text returns a TextNode's content.
func (d *DB) Text(id hyper.NodeID) (text string, err error) {
	err = d.viewNode(id, func(v objView) error {
		if v.kind() != hyper.KindText {
			return wrongKind(id, v.kind())
		}
		text = string(v.text)
		return nil
	})
	return text, err
}

// SetText replaces a TextNode's content.
func (d *DB) SetText(id hyper.NodeID, text string) error {
	if err := d.writable(); err != nil {
		return err
	}
	oid, o, err := d.contentNode(id, hyper.KindText)
	if err != nil {
		return err
	}
	o.text = []byte(text)
	return d.storeObj(oid, o)
}

// Form returns a FormNode's bitmap.
func (d *DB) Form(id hyper.NodeID) (bm hyper.Bitmap, err error) {
	err = d.viewNode(id, func(v objView) error {
		if v.kind() != hyper.KindForm {
			return wrongKind(id, v.kind())
		}
		var err error
		bm, err = hyper.DecodeBitmap(v.form)
		return err
	})
	return bm, err
}

// SetForm replaces a FormNode's bitmap.
func (d *DB) SetForm(id hyper.NodeID, bm hyper.Bitmap) error {
	if err := d.writable(); err != nil {
		return err
	}
	oid, o, err := d.contentNode(id, hyper.KindForm)
	if err != nil {
		return err
	}
	o.form = hyper.EncodeBitmap(bm)
	return d.storeObj(oid, o)
}

func blobKey(key string) []byte { return append([]byte("b/"), key...) }

// PutBlob stores a named value as an object.
func (d *DB) PutBlob(key string, data []byte) error {
	if err := d.writable(); err != nil {
		return err
	}
	if v, ok, err := d.blobs.Get(blobKey(key)); err != nil {
		return err
	} else if ok {
		return d.objs.Update(objstore.OID(btree.U64FromKey(v)), data)
	}
	oid, err := d.objs.Put(data, objstore.InvalidOID)
	if err != nil {
		return err
	}
	return d.blobs.Put(blobKey(key), btree.U64Key(uint64(oid)))
}

// GetBlob retrieves a named value.
func (d *DB) GetBlob(key string) ([]byte, error) {
	v, ok, err := d.blobs.Get(blobKey(key))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: blob %q", hyper.ErrNotFound, key)
	}
	return d.objs.Get(objstore.OID(btree.U64FromKey(v)))
}

// DeleteBlob removes a named value (idempotent).
func (d *DB) DeleteBlob(key string) error {
	if err := d.writable(); err != nil {
		return err
	}
	v, ok, err := d.blobs.Get(blobKey(key))
	if err != nil || !ok {
		return err
	}
	if err := d.objs.Delete(objstore.OID(btree.U64FromKey(v))); err != nil {
		return err
	}
	_, err = d.blobs.Delete(blobKey(key))
	return err
}

// Commit makes all changes durable through the WAL. A failed commit
// (e.g. an optimistic-concurrency conflict over the page server) means
// the transaction's reads may have been invalid, so the OID cache they
// populated is dropped with it.
func (d *DB) Commit() error {
	if err := d.st.Commit(); err != nil {
		d.clearOIDCache()
		return err
	}
	return nil
}

func (d *DB) clearOIDCache() {
	d.oidMu.Lock()
	d.oidCache = nil
	d.oidMu.Unlock()
}

// DropCaches empties the buffer pool and the OID cache: the next run
// is cold.
func (d *DB) DropCaches() error {
	err := d.st.Commit()
	d.clearOIDCache()
	if err != nil {
		return err
	}
	return d.st.DropCache()
}

// Abort discards all uncommitted changes (rollback), including any OID
// mappings learned from the transaction's possibly-invalid reads.
func (d *DB) Abort() error {
	d.clearOIDCache()
	return d.st.Abort()
}

// Close commits, checkpoints and closes the store.
func (d *DB) Close() error { return d.st.Close() }

// CacheStats reports buffer pool hits/misses and disk (or server)
// reads.
func (d *DB) CacheStats() (hits, misses, diskReads uint64) {
	return d.st.CacheStats()
}

// Snapshot returns a read-only database pinned to the newest committed
// version of the underlying store: the same object mapping, opened
// over a store snapshot view, so long-running read closures see a
// stable state while commits proceed on the parent. A space without a
// version ring (the page-server client) returns ErrNoSnapshots.
func (d *DB) Snapshot() (hyper.DB, error) {
	sv, ok := d.st.(interface {
		Snapshot() (*store.SnapshotView, error)
	})
	if !ok {
		return nil, hyper.ErrNoSnapshots
	}
	view, err := sv.Snapshot()
	if err != nil {
		return nil, err
	}
	// Clustering options only shape writes; a read-only view doesn't
	// need them.
	return New(view, Options{})
}

// CommitStats reports the transaction counters of whichever layer the
// mapping sits on: the local store's flush/batching counters, or a
// page-server session's commit/conflict counters.
func (d *DB) CommitStats() hyper.CommitStats {
	if cs, ok := d.st.(interface{ CommitStats() store.CommitStats }); ok {
		s := cs.CommitStats()
		return hyper.CommitStats{
			Commits:      s.Commits,
			Flushes:      s.Flushes,
			GroupCommits: s.GroupCommits,
			GroupedTxns:  s.GroupedTxns,
			MaxBatch:     s.MaxBatch,
		}
	}
	if cs, ok := d.st.(interface{ CommitStats() (uint64, uint64) }); ok {
		commits, conflicts := cs.CommitStats()
		return hyper.CommitStats{Commits: commits, Conflicts: conflicts}
	}
	return hyper.CommitStats{}
}

// --- Dynamic schema (R4, §6.8 extension 1) ---

func classKey(name string) []byte { return append([]byte("c/"), name...) }
func attrKey(k hyper.Kind, a string) []byte {
	return append([]byte(fmt.Sprintf("a/%d/", k)), a...)
}
func uattrKey(id hyper.NodeID, a string) []byte {
	return append(btree.U64Key(uint64(id)), append([]byte("/u/"), a...)...)
}

// AddClass registers a new node class in the catalog.
func (d *DB) AddClass(name string) (hyper.Kind, error) {
	if err := d.writable(); err != nil {
		return 0, err
	}
	if _, ok, err := d.cat.Get(classKey(name)); err != nil {
		return 0, err
	} else if ok {
		return 0, fmt.Errorf("oodb: class %q already exists", name)
	}
	// Kinds are allocated densely from KindUser by counting classes.
	next := hyper.KindUser
	err := d.cat.Scan([]byte("c/"), btree.PrefixEnd([]byte("c/")), func(_, _ []byte) (bool, error) {
		next++
		return true, nil
	})
	if err != nil {
		return 0, err
	}
	if err := d.cat.Put(classKey(name), []byte{byte(next)}); err != nil {
		return 0, err
	}
	return next, nil
}

// Classes lists the registered dynamic classes.
func (d *DB) Classes() (map[string]hyper.Kind, error) {
	out := map[string]hyper.Kind{}
	err := d.cat.Scan([]byte("c/"), btree.PrefixEnd([]byte("c/")), func(k, v []byte) (bool, error) {
		out[string(k[2:])] = hyper.Kind(v[0])
		return true, nil
	})
	return out, err
}

// AddAttribute declares a dynamic attribute on a class.
func (d *DB) AddAttribute(class hyper.Kind, attr string) error {
	if err := d.writable(); err != nil {
		return err
	}
	key := attrKey(class, attr)
	if _, ok, err := d.cat.Get(key); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("oodb: attribute %q already declared", attr)
	}
	return d.cat.Put(key, nil)
}

// SetAttr stores a dynamic attribute value on a node.
func (d *DB) SetAttr(id hyper.NodeID, attr string, v int64) error {
	if err := d.writable(); err != nil {
		return err
	}
	if _, err := d.oidOf(id); err != nil {
		return err
	}
	return d.cat.Put(uattrKey(id, attr), btree.U64Key(uint64(v)))
}

// Attr reads a dynamic attribute value from a node.
func (d *DB) Attr(id hyper.NodeID, attr string) (int64, bool, error) {
	if _, err := d.oidOf(id); err != nil {
		return 0, false, err
	}
	v, ok, err := d.cat.Get(uattrKey(id, attr))
	if err != nil || !ok {
		return 0, false, err
	}
	return int64(btree.U64FromKey(v)), true, nil
}

// GarbageCollect removes objects unreachable from the indexes (R10):
// anything not referenced by the uniqueId index or the blob directory
// is an orphan — typically debris from a crash between object creation
// and index maintenance. It returns the number of objects freed.
func (d *DB) GarbageCollect() (freed int, err error) {
	if err := d.writable(); err != nil {
		return 0, err
	}
	live := map[objstore.OID]bool{}
	collect := func(t *btree.Tree) error {
		return t.Scan(nil, nil, func(_, v []byte) (bool, error) {
			live[objstore.OID(btree.U64FromKey(v))] = true
			return true, nil
		})
	}
	if err := collect(d.uniq); err != nil {
		return 0, err
	}
	if err := collect(d.blobs); err != nil {
		return 0, err
	}
	freed, err = d.objs.Sweep(func(oid objstore.OID) bool { return live[oid] })
	if err != nil {
		return freed, err
	}
	return freed, d.st.Commit()
}

// Backup writes a consistent copy of the database file (R10). Only
// supported over a local page store; the page-server configuration
// backs up on the server side.
func (d *DB) Backup(destPath string) error {
	if st, ok := d.st.(*store.Store); ok {
		return st.Backup(destPath)
	}
	return errors.New("oodb: backup requires a local page store")
}

// SamePage reports whether two nodes' objects share a data page
// (clustering diagnostics for E11).
func (d *DB) SamePage(a, b hyper.NodeID) (bool, error) {
	ao, err := d.oidOf(a)
	if err != nil {
		return false, err
	}
	bo, err := d.oidOf(b)
	if err != nil {
		return false, err
	}
	return d.objs.SamePage(ao, bo)
}

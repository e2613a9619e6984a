// Package reldb maps the HyperModel schema onto a relational design,
// following the methodology the paper cites (/BLAH88/, "Relational
// Database Design using an Object-Oriented Methodology"):
//
//	NODE(uniqueId PK, kind, ten, hundred, thousand, million)
//	CHILD(parentId, seq PK, childId)        -- ordered 1-N
//	CHILDINV(childId PK, parentId)
//	PART(wholeId, seq PK, partId)           -- M-N aggregation
//	PARTINV(partId, seq PK, wholeId)
//	REF(fromId, seq PK, toId, offFrom, offTo)   -- M-N association
//	REFINV(toId, seq PK, fromId, offFrom, offTo)
//	IDXH(hundred, uniqueId), IDXM(million, uniqueId)
//	CONTENT(uniqueId PK, blob)              -- text/bitmap out of line
//
// Every table and index is a B+tree over the shared page store. The
// mapping reproduces the relational system's benchmark profile: key
// and range lookups are competitive (indexes), but every relationship
// traversal is an index join with no physical clustering along the
// aggregation hierarchy, so closures pay per-edge lookups.
//
// There are no system object identifiers: OIDOf returns
// hyper.ErrNoOIDs, and operation O2 is reported "not applicable", as
// the paper permits for such systems.
package reldb

import (
	"encoding/binary"
	"fmt"

	"hypermodel/internal/btree"
	"hypermodel/internal/hyper"
	"hypermodel/internal/objstore"
	"hypermodel/internal/storage/store"
)

// Root slots.
const (
	rootNode = iota
	rootChild
	rootChildInv
	rootPart
	rootPartInv
	rootRef
	rootRefInv
	rootIdxH
	rootIdxM
	rootContent
	rootBlobs
	rootHeapTable
	rootHeapMeta
	rootCatalog
)

// Options tune the underlying page store.
type Options struct {
	Store store.Options
}

// Space is what the relational mapping needs from its page layer: the
// core page operations plus cache control and lifecycle. The local
// store satisfies it, and so does a read-only snapshot view — which is
// how Snapshot reopens the same mapping over a pinned version.
type Space interface {
	store.Space
	DropCache() error
	Abort() error
	Close() error
	CacheStats() (hits, misses, reads uint64)
}

// DB implements hyper.Backend with the relational mapping.
type DB struct {
	st       Space
	node     *btree.Tree
	child    *btree.Tree
	childInv *btree.Tree
	part     *btree.Tree
	partInv  *btree.Tree
	ref      *btree.Tree
	refInv   *btree.Tree
	idxH     *btree.Tree
	idxM     *btree.Tree
	content  *btree.Tree
	blobs    *btree.Tree
	cat      *btree.Tree
	heap     *objstore.Store // out-of-line storage for text/bitmap blobs

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

// Open opens (or creates) a relational database at path.
func Open(path string, opts Options) (*DB, error) {
	st, err := store.Open(path, &opts.Store)
	if err != nil {
		return nil, err
	}
	db, err := New(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	return db, nil
}

// New wires the relational mapping over an existing page space.
func New(st Space) (*DB, error) {
	d := &DB{st: st}
	for _, x := range []struct {
		tree **btree.Tree
		slot int
	}{
		{&d.node, rootNode}, {&d.child, rootChild}, {&d.childInv, rootChildInv},
		{&d.part, rootPart}, {&d.partInv, rootPartInv},
		{&d.ref, rootRef}, {&d.refInv, rootRefInv},
		{&d.idxH, rootIdxH}, {&d.idxM, rootIdxM},
		{&d.content, rootContent}, {&d.blobs, rootBlobs}, {&d.cat, rootCatalog},
	} {
		t, err := btree.Open(st, x.slot)
		if err != nil {
			return nil, err
		}
		*x.tree = t
	}
	heap, err := objstore.Open(st, rootHeapTable, rootHeapMeta, objstore.Options{})
	if err != nil {
		return nil, err
	}
	d.heap = heap
	if rv, ok := st.(interface{ ReadOnly() bool }); ok && rv.ReadOnly() {
		d.ro = true
	}
	return d, nil
}

// writable guards every mutating entry point: a DB opened over a
// read-only view (DB.Snapshot) rejects updates at the API boundary.
func (d *DB) writable() error {
	if d.ro {
		return store.ErrReadOnly
	}
	return nil
}

func (d *DB) Name() string { return "reldb" }

// Store exposes the underlying page space (harness diagnostics).
func (d *DB) Store() Space { return d.st }

// --- row codecs ---

// NODE row: kind u8, ten/hundred/thousand/million i32.
func encodeNodeRow(n hyper.Node) []byte {
	b := make([]byte, 17)
	b[0] = byte(n.Kind)
	binary.LittleEndian.PutUint32(b[1:], uint32(n.Ten))
	binary.LittleEndian.PutUint32(b[5:], uint32(n.Hundred))
	binary.LittleEndian.PutUint32(b[9:], uint32(n.Thousand))
	binary.LittleEndian.PutUint32(b[13:], uint32(n.Million))
	return b
}

func decodeNodeRow(id hyper.NodeID, b []byte) (hyper.Node, error) {
	if len(b) != 17 {
		return hyper.Node{}, fmt.Errorf("reldb: NODE row has %d bytes", len(b))
	}
	return hyper.Node{
		ID:       id,
		Kind:     hyper.Kind(b[0]),
		Ten:      int32(binary.LittleEndian.Uint32(b[1:])),
		Hundred:  int32(binary.LittleEndian.Uint32(b[5:])),
		Thousand: int32(binary.LittleEndian.Uint32(b[9:])),
		Million:  int32(binary.LittleEndian.Uint32(b[13:])),
	}, nil
}

// REF row: otherId u64, offFrom i32, offTo i32.
func encodeRefRow(other hyper.NodeID, offFrom, offTo int32) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b[0:], uint64(other))
	binary.LittleEndian.PutUint32(b[8:], uint32(offFrom))
	binary.LittleEndian.PutUint32(b[12:], uint32(offTo))
	return b
}

func decodeRefRow(b []byte) (hyper.NodeID, int32, int32, error) {
	if len(b) != 16 {
		return 0, 0, 0, fmt.Errorf("reldb: REF row has %d bytes", len(b))
	}
	return hyper.NodeID(binary.LittleEndian.Uint64(b[0:])),
		int32(binary.LittleEndian.Uint32(b[8:])),
		int32(binary.LittleEndian.Uint32(b[12:])), nil
}

func u64Row(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func rowU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func idKey(id hyper.NodeID) []byte { return btree.U64Key(uint64(id)) }

// nextSeq counts the rows with the given owner prefix in an ordered
// relationship table, yielding the next sequence number.
func nextSeq(t *btree.Tree, owner hyper.NodeID) (uint32, error) {
	var n uint32
	from := btree.U64U32Key(uint64(owner), 0)
	to := btree.U64Key(uint64(owner) + 1)
	err := t.Scan(from, to, func(_, _ []byte) (bool, error) { n++; return true, nil })
	return n, err
}

// --- creation ---

func (d *DB) createRow(n hyper.Node, content []byte) error {
	if err := d.writable(); err != nil {
		return err
	}
	key := idKey(n.ID)
	if _, ok, err := d.node.Get(key); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("reldb: node %d already exists", n.ID)
	}
	if err := d.node.Put(key, encodeNodeRow(n)); err != nil {
		return err
	}
	if err := d.idxH.Put(btree.U32U64Key(uint32(n.Hundred), uint64(n.ID)), nil); err != nil {
		return err
	}
	if err := d.idxM.Put(btree.U32U64Key(uint32(n.Million), uint64(n.ID)), nil); err != nil {
		return err
	}
	if content != nil {
		oid, err := d.heap.Put(content, objstore.InvalidOID)
		if err != nil {
			return err
		}
		return d.content.Put(key, btree.U64Key(uint64(oid)))
	}
	return nil
}

// CreateNode stores an interior node. Relational systems have no
// clustering hint; near is ignored.
func (d *DB) CreateNode(n hyper.Node, _ hyper.NodeID) error {
	return d.createRow(n, nil)
}

// CreateTextNode stores a TextNode row plus its out-of-line content.
func (d *DB) CreateTextNode(n hyper.Node, text string, _ hyper.NodeID) error {
	return d.createRow(n, []byte(text))
}

// CreateFormNode stores a FormNode row plus its out-of-line bitmap.
func (d *DB) CreateFormNode(n hyper.Node, bm hyper.Bitmap, _ hyper.NodeID) error {
	return d.createRow(n, hyper.EncodeBitmap(bm))
}

func (d *DB) mustExist(id hyper.NodeID) error {
	ok, err := d.existsRow(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: node %d", hyper.ErrNotFound, id)
	}
	return nil
}

// AddChild inserts a CHILD row with the next sequence number and the
// CHILDINV row.
func (d *DB) AddChild(parent, child hyper.NodeID) error {
	if err := d.writable(); err != nil {
		return err
	}
	if err := d.mustExist(parent); err != nil {
		return err
	}
	if err := d.mustExist(child); err != nil {
		return err
	}
	if _, ok, err := d.childInv.Get(idKey(child)); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("reldb: node %d already has a parent", child)
	}
	seq, err := nextSeq(d.child, parent)
	if err != nil {
		return err
	}
	if err := d.child.Put(btree.U64U32Key(uint64(parent), seq), u64Row(uint64(child))); err != nil {
		return err
	}
	return d.childInv.Put(idKey(child), u64Row(uint64(parent)))
}

// AddPart inserts PART and PARTINV rows.
func (d *DB) AddPart(whole, part hyper.NodeID) error {
	if err := d.writable(); err != nil {
		return err
	}
	if err := d.mustExist(whole); err != nil {
		return err
	}
	if err := d.mustExist(part); err != nil {
		return err
	}
	seq, err := nextSeq(d.part, whole)
	if err != nil {
		return err
	}
	if err := d.part.Put(btree.U64U32Key(uint64(whole), seq), u64Row(uint64(part))); err != nil {
		return err
	}
	iseq, err := nextSeq(d.partInv, part)
	if err != nil {
		return err
	}
	return d.partInv.Put(btree.U64U32Key(uint64(part), iseq), u64Row(uint64(whole)))
}

// AddRef inserts REF and REFINV rows.
func (d *DB) AddRef(e hyper.Edge) error {
	if err := d.writable(); err != nil {
		return err
	}
	if err := d.mustExist(e.From); err != nil {
		return err
	}
	if err := d.mustExist(e.To); err != nil {
		return err
	}
	seq, err := nextSeq(d.ref, e.From)
	if err != nil {
		return err
	}
	if err := d.ref.Put(btree.U64U32Key(uint64(e.From), seq), encodeRefRow(e.To, e.OffsetFrom, e.OffsetTo)); err != nil {
		return err
	}
	iseq, err := nextSeq(d.refInv, e.To)
	if err != nil {
		return err
	}
	return d.refInv.Put(btree.U64U32Key(uint64(e.To), iseq), encodeRefRow(e.From, e.OffsetFrom, e.OffsetTo))
}

// --- lookups ---

// Node selects the NODE row by primary key.
func (d *DB) Node(id hyper.NodeID) (hyper.Node, error) {
	n, ok, err := d.nodeRow(id)
	if err == nil && !ok {
		err = fmt.Errorf("%w: node %d", hyper.ErrNotFound, id)
	}
	return n, err
}

// Hundred projects one attribute from the NODE row.
func (d *DB) Hundred(id hyper.NodeID) (int32, error) {
	n, err := d.Node(id)
	if err != nil {
		return 0, err
	}
	return n.Hundred, nil
}

// SetHundred updates the NODE row and the hundred index.
func (d *DB) SetHundred(id hyper.NodeID, v int32) error {
	if err := d.writable(); err != nil {
		return err
	}
	n, err := d.Node(id)
	if err != nil {
		return err
	}
	if n.Hundred == v {
		return nil
	}
	if _, err := d.idxH.Delete(btree.U32U64Key(uint32(n.Hundred), uint64(id))); err != nil {
		return err
	}
	n.Hundred = v
	if err := d.node.Put(idKey(id), encodeNodeRow(n)); err != nil {
		return err
	}
	return d.idxH.Put(btree.U32U64Key(uint32(v), uint64(id)), nil)
}

// OIDOf: the relational mapping has no system object identifiers.
func (d *DB) OIDOf(hyper.NodeID) (hyper.OID, error) { return 0, hyper.ErrNoOIDs }

// HundredByOID is not applicable without OIDs.
func (d *DB) HundredByOID(hyper.OID) (int32, error) { return 0, hyper.ErrNoOIDs }

// RangeHundred scans the hundred index.
func (d *DB) RangeHundred(lo, hi int32) ([]hyper.NodeID, error) {
	return scanAttrIndex(d.idxH, lo, hi)
}

// RangeMillion scans the million index.
func (d *DB) RangeMillion(lo, hi int32) ([]hyper.NodeID, error) {
	return scanAttrIndex(d.idxM, lo, hi)
}

func scanAttrIndex(t *btree.Tree, lo, hi int32) ([]hyper.NodeID, error) {
	var out []hyper.NodeID
	err := t.Scan(btree.U32U64Key(uint32(lo), 0), btree.U32U64Key(uint32(hi)+1, 0),
		func(k, _ []byte) (bool, error) {
			_, id := btree.U32U64FromKey(k)
			out = append(out, hyper.NodeID(id))
			return true, nil
		})
	return out, err
}

// scanOwned collects the values of an ordered relationship table for
// one owner, in sequence order.
func (d *DB) scanOwned(t *btree.Tree, owner hyper.NodeID) ([]hyper.NodeID, error) {
	if err := d.mustExist(owner); err != nil {
		return nil, err
	}
	return d.scanOwnedRows(t, owner)
}

// scanOwnedRows is scanOwned without the owner existence check (batch
// reads verify existence separately, probing the NODE table once per
// distinct id).
func (d *DB) scanOwnedRows(t *btree.Tree, owner hyper.NodeID) ([]hyper.NodeID, error) {
	var out []hyper.NodeID
	err := t.Scan(btree.U64U32Key(uint64(owner), 0), btree.U64Key(uint64(owner)+1),
		func(_, v []byte) (bool, error) {
			out = append(out, hyper.NodeID(rowU64(v)))
			return true, nil
		})
	return out, err
}

// Children selects the CHILD rows for a parent, ordered by seq.
func (d *DB) Children(id hyper.NodeID) ([]hyper.NodeID, error) {
	return d.scanOwned(d.child, id)
}

// Parts selects the PART rows for a whole.
func (d *DB) Parts(id hyper.NodeID) ([]hyper.NodeID, error) {
	return d.scanOwned(d.part, id)
}

func (d *DB) scanEdges(t *btree.Tree, owner hyper.NodeID, outgoing bool) ([]hyper.Edge, error) {
	if err := d.mustExist(owner); err != nil {
		return nil, err
	}
	return d.scanEdgeRows(t, owner, outgoing)
}

// scanEdgeRows is scanEdges without the owner existence check.
func (d *DB) scanEdgeRows(t *btree.Tree, owner hyper.NodeID, outgoing bool) ([]hyper.Edge, error) {
	var out []hyper.Edge
	err := t.Scan(btree.U64U32Key(uint64(owner), 0), btree.U64Key(uint64(owner)+1),
		func(_, v []byte) (bool, error) {
			other, offFrom, offTo, err := decodeRefRow(v)
			if err != nil {
				return false, err
			}
			if outgoing {
				out = append(out, hyper.Edge{From: owner, To: other, OffsetFrom: offFrom, OffsetTo: offTo})
			} else {
				out = append(out, hyper.Edge{From: other, To: owner, OffsetFrom: offFrom, OffsetTo: offTo})
			}
			return true, nil
		})
	return out, err
}

// RefsTo selects the REF rows with fromId = id.
func (d *DB) RefsTo(id hyper.NodeID) ([]hyper.Edge, error) {
	return d.scanEdges(d.ref, id, true)
}

// Parent selects the CHILDINV row.
func (d *DB) Parent(id hyper.NodeID) (hyper.NodeID, bool, error) {
	if err := d.mustExist(id); err != nil {
		return 0, false, err
	}
	var parent hyper.NodeID
	ok, err := d.childInv.View(idKey(id), func(row []byte) error {
		parent = hyper.NodeID(rowU64(row))
		return nil
	})
	if err != nil || !ok {
		return 0, false, err
	}
	return parent, true, nil
}

// PartOf selects the PARTINV rows.
func (d *DB) PartOf(id hyper.NodeID) ([]hyper.NodeID, error) {
	return d.scanOwned(d.partInv, id)
}

// RefsFrom selects the REFINV rows with toId = id.
func (d *DB) RefsFrom(id hyper.NodeID) ([]hyper.Edge, error) {
	return d.scanEdges(d.refInv, id, false)
}

// ScanTen scans the NODE table's primary key range.
func (d *DB) ScanTen(first, last hyper.NodeID, visit func(hyper.NodeID, int32) bool) error {
	return d.node.Scan(idKey(first), btree.U64Key(uint64(last)+1), func(k, v []byte) (bool, error) {
		id := hyper.NodeID(btree.U64FromKey(k))
		n, err := decodeNodeRow(id, v)
		if err != nil {
			return false, err
		}
		return visit(id, n.Ten), nil
	})
}

// --- content ---

func (d *DB) contentBlob(id hyper.NodeID, want hyper.Kind) (objstore.OID, error) {
	n, err := d.Node(id)
	if err != nil {
		return 0, err
	}
	if n.Kind != want {
		return 0, fmt.Errorf("%w: node %d is %s", hyper.ErrWrongKind, id, n.Kind)
	}
	var oid objstore.OID
	ok, err := d.content.View(idKey(id), func(v []byte) error {
		oid = objstore.OID(btree.U64FromKey(v))
		return nil
	})
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: content of node %d", hyper.ErrNotFound, id)
	}
	return oid, nil
}

// Text selects a TextNode's out-of-line content.
func (d *DB) Text(id hyper.NodeID) (string, error) {
	oid, err := d.contentBlob(id, hyper.KindText)
	if err != nil {
		return "", err
	}
	data, err := d.heap.Get(oid)
	return string(data), err
}

// SetText replaces a TextNode's content.
func (d *DB) SetText(id hyper.NodeID, text string) error {
	if err := d.writable(); err != nil {
		return err
	}
	oid, err := d.contentBlob(id, hyper.KindText)
	if err != nil {
		return err
	}
	return d.heap.Update(oid, []byte(text))
}

// Form selects a FormNode's out-of-line bitmap.
func (d *DB) Form(id hyper.NodeID) (hyper.Bitmap, error) {
	oid, err := d.contentBlob(id, hyper.KindForm)
	if err != nil {
		return hyper.Bitmap{}, err
	}
	data, err := d.heap.Get(oid)
	if err != nil {
		return hyper.Bitmap{}, err
	}
	return hyper.DecodeBitmap(data)
}

// SetForm replaces a FormNode's bitmap.
func (d *DB) SetForm(id hyper.NodeID, bm hyper.Bitmap) error {
	if err := d.writable(); err != nil {
		return err
	}
	oid, err := d.contentBlob(id, hyper.KindForm)
	if err != nil {
		return err
	}
	return d.heap.Update(oid, hyper.EncodeBitmap(bm))
}

// --- blobs ---

func blobKey(key string) []byte { return append([]byte("b/"), key...) }

// PutBlob stores a named value in the heap.
func (d *DB) PutBlob(key string, data []byte) error {
	if err := d.writable(); err != nil {
		return err
	}
	if v, ok, err := d.blobs.Get(blobKey(key)); err != nil {
		return err
	} else if ok {
		return d.heap.Update(objstore.OID(btree.U64FromKey(v)), data)
	}
	oid, err := d.heap.Put(data, objstore.InvalidOID)
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
	return d.heap.Get(objstore.OID(btree.U64FromKey(v)))
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
	if err := d.heap.Delete(objstore.OID(btree.U64FromKey(v))); err != nil {
		return err
	}
	_, err = d.blobs.Delete(blobKey(key))
	return err
}

// --- lifecycle ---

// Commit makes all changes durable through the WAL.
func (d *DB) Commit() error { return d.st.Commit() }

// DropCaches empties the buffer pool.
func (d *DB) DropCaches() error {
	if err := d.st.Commit(); err != nil {
		return err
	}
	return d.st.DropCache()
}

// Abort discards all uncommitted changes (rollback).
func (d *DB) Abort() error { return d.st.Abort() }

// Close commits, checkpoints and closes the store.
func (d *DB) Close() error { return d.st.Close() }

// CacheStats reports buffer-pool and disk counters.
func (d *DB) CacheStats() (hits, misses, diskReads uint64) {
	return d.st.CacheStats()
}

// Snapshot returns a read-only database pinned to the newest committed
// version of the underlying store: the same relational mapping, opened
// over a store snapshot view, so long-running read closures see a
// stable state while commits proceed on the parent.
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
	return New(view)
}

// CommitStats reports the underlying store's transaction counters.
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
	return hyper.CommitStats{}
}

// --- dynamic schema (R4): same catalog layout as the oodb backend ---

func classKey(name string) []byte { return append([]byte("c/"), name...) }

func attrKey(k hyper.Kind, a string) []byte {
	return append([]byte(fmt.Sprintf("a/%d/", k)), a...)
}

func uattrKey(id hyper.NodeID, a string) []byte {
	return append(btree.U64Key(uint64(id)), append([]byte("/u/"), a...)...)
}

// AddClass registers a new node class: in relational terms, recording a
// new subtype in the catalog (a new table would be created lazily).
func (d *DB) AddClass(name string) (hyper.Kind, error) {
	if err := d.writable(); err != nil {
		return 0, err
	}
	if _, ok, err := d.cat.Get(classKey(name)); err != nil {
		return 0, err
	} else if ok {
		return 0, fmt.Errorf("reldb: class %q already exists", name)
	}
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

// AddAttribute records an ALTER TABLE ADD COLUMN in the catalog.
func (d *DB) AddAttribute(class hyper.Kind, attr string) error {
	if err := d.writable(); err != nil {
		return err
	}
	key := attrKey(class, attr)
	if _, ok, err := d.cat.Get(key); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("reldb: attribute %q already declared", attr)
	}
	return d.cat.Put(key, nil)
}

// SetAttr stores a dynamic attribute value.
func (d *DB) SetAttr(id hyper.NodeID, attr string, v int64) error {
	if err := d.writable(); err != nil {
		return err
	}
	if err := d.mustExist(id); err != nil {
		return err
	}
	return d.cat.Put(uattrKey(id, attr), btree.U64Key(uint64(v)))
}

// Attr reads a dynamic attribute value.
func (d *DB) Attr(id hyper.NodeID, attr string) (int64, bool, error) {
	if err := d.mustExist(id); err != nil {
		return 0, false, err
	}
	v, ok, err := d.cat.Get(uattrKey(id, attr))
	if err != nil || !ok {
		return 0, false, err
	}
	return int64(btree.U64FromKey(v)), true, nil
}

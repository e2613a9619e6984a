// Package objstore implements a persistent object store: byte-string
// objects identified by system-generated object identifiers (OIDs).
//
// This is the storage model of the object-oriented DBMSs the HyperModel
// benchmark was designed for (GemStone, Vbase): objects live in slotted
// data pages, an object table maps OID → (page, slot), and new objects
// can be placed *near* an existing object. The oodb backend uses the
// near-hint to cluster the 1-N aggregation hierarchy, which is exactly
// the clustering effect the paper predicts for closure1N vs closureMN
// (§5.2, §6.5) and which experiment E11 ablates.
//
// Objects larger than a page spill into a chain of overflow pages; the
// data page keeps a fixed-size stub.
package objstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"hypermodel/internal/btree"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/slotted"
	"hypermodel/internal/storage/store"
)

// OID identifies an object. OIDs are allocated monotonically from 1;
// zero is never a valid OID.
type OID uint64

// InvalidOID is the zero, never-allocated object identifier.
const InvalidOID OID = 0

// ErrNotFound is returned when an OID does not denote a live object.
var ErrNotFound = errors.New("objstore: object not found")

// Record stubs stored in slotted pages.
const (
	flagInline   = 0
	flagOverflow = 1

	overflowStubSize = 1 + 4 + 8 // flag, total length, first chain page
)

// maxInline is the largest object stored directly in a data page.
const maxInline = slotted.MaxRecord - 1 // minus the flag byte

// Overflow chain page payload: next page (u64), used bytes (u16), data.
const (
	ovfNextOff = 0
	ovfUsedOff = 8
	ovfDataOff = 10
	ovfChunk   = page.Size - page.HeaderSize - ovfDataOff
)

// Store is a persistent object store over a page Space.
type Store struct {
	sp         store.Space
	table      *btree.Tree // OID → RID (pageID u64, slot u16)
	metaPage   page.ID     // holds nextOID and the allocation cursor
	clustering bool
	reserve    int       // bytes kept free at Put time (fill factor)
	scatter    int       // ScatterWindow
	recent     []page.ID // ring of recent data pages (scatter mode)
	scatterRng *rand.Rand
}

// Options configure an object store.
type Options struct {
	// Clustering enables the near-hint: Put(data, near) tries to place
	// the new object on the same page as near. Disabled, all placement
	// is sequential (the E11 ablation).
	Clustering bool
	// FillFactor bounds how full a data page may be at Put time, in
	// [0.1, 1.0]; zero selects the default 0.75. The slack left behind
	// absorbs later object growth (relationship lists being appended)
	// without relocating records, which would otherwise undo
	// clustering. Updates ignore the factor: growth may consume the
	// slack completely.
	FillFactor float64
	// ScatterWindow, when positive, deliberately de-clusters placement:
	// each insert picks a random page among the last N data pages
	// instead of the current fill page. It models a store whose
	// placement ignores the aggregation hierarchy entirely (the paper's
	// "no clustering" case, where even creation order gives no
	// locality). Ignored when Clustering is true.
	ScatterWindow int
}

// objstore meta page payload layout.
const (
	metaNextOIDOff = 0 // uint64
	metaCursorOff  = 8 // uint64: current fill page for placements
)

// Open returns the object store persisted in the two given root slots
// (one for the object table, one for the store's meta page), creating
// it if the slots are unset.
func Open(sp store.Space, tableRootSlot, metaRootSlot int, opts Options) (*Store, error) {
	tbl, err := btree.Open(sp, tableRootSlot)
	if err != nil {
		return nil, err
	}
	ff := opts.FillFactor
	if ff == 0 {
		ff = 0.75
	}
	if ff < 0.1 {
		ff = 0.1
	}
	if ff > 1 {
		ff = 1
	}
	s := &Store{
		sp: sp, table: tbl, clustering: opts.Clustering,
		reserve: int((1 - ff) * float64(page.Size-page.HeaderSize)),
		scatter: opts.ScatterWindow,
	}
	if s.scatter > 0 {
		s.scatterRng = rand.New(rand.NewSource(int64(s.scatter)))
	}
	if id := sp.Root(metaRootSlot); id != page.Invalid {
		s.metaPage = id
		return s, nil
	}
	id, h, err := sp.Alloc(page.TypeObjTable)
	if err != nil {
		return nil, fmt.Errorf("objstore: create meta: %w", err)
	}
	pl := h.Page().Payload()
	binary.LittleEndian.PutUint64(pl[metaNextOIDOff:], 1)
	binary.LittleEndian.PutUint64(pl[metaCursorOff:], uint64(page.Invalid))
	h.Release()
	sp.SetRoot(metaRootSlot, id)
	s.metaPage = id
	return s, nil
}

// SetClustering toggles the near-hint at runtime (used by the E11
// ablation harness before loading).
func (s *Store) SetClustering(on bool) { s.clustering = on }

func (s *Store) meta() (store.Handle, []byte, error) {
	h, err := s.sp.Get(s.metaPage)
	if err != nil {
		return nil, nil, err
	}
	return h, h.Page().Payload(), nil
}

func (s *Store) nextOID() (OID, error) {
	h, pl, err := s.meta()
	if err != nil {
		return 0, err
	}
	defer h.Release()
	oid := binary.LittleEndian.Uint64(pl[metaNextOIDOff:])
	binary.LittleEndian.PutUint64(pl[metaNextOIDOff:], oid+1)
	h.MarkDirty()
	return OID(oid), nil
}

func (s *Store) cursor() (page.ID, error) {
	h, pl, err := s.meta()
	if err != nil {
		return page.Invalid, err
	}
	defer h.Release()
	return page.ID(binary.LittleEndian.Uint64(pl[metaCursorOff:])), nil
}

func (s *Store) setCursor(id page.ID) error {
	h, pl, err := s.meta()
	if err != nil {
		return err
	}
	defer h.Release()
	binary.LittleEndian.PutUint64(pl[metaCursorOff:], uint64(id))
	h.MarkDirty()
	return nil
}

// rid is an object's physical address.
type rid struct {
	pg   page.ID
	slot uint16
}

func ridValue(r rid) []byte {
	var b [10]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(r.pg))
	binary.LittleEndian.PutUint16(b[8:], r.slot)
	return b[:]
}

func ridFromValue(b []byte) rid {
	return rid{page.ID(binary.LittleEndian.Uint64(b[:8])), binary.LittleEndian.Uint16(b[8:])}
}

func oidKey(oid OID) []byte { return btree.U64Key(uint64(oid)) }

// lookup resolves an OID through the object table. The address is
// parsed under the leaf's pin and the key never leaves the stack, so a
// probe allocates nothing.
func (s *Store) lookup(oid OID) (rid, error) {
	var r rid
	ok, err := s.table.View(oidKey(oid), func(v []byte) error {
		r = ridFromValue(v)
		return nil
	})
	if err != nil {
		return rid{}, err
	}
	if !ok {
		return rid{}, fmt.Errorf("%w: oid %d", ErrNotFound, oid)
	}
	return r, nil
}

// Put stores data as a new object and returns its OID. If near is a
// live OID and clustering is enabled, the store tries to co-locate the
// new object on near's data page.
func (s *Store) Put(data []byte, near OID) (OID, error) {
	oid, err := s.nextOID()
	if err != nil {
		return InvalidOID, err
	}
	r, err := s.place(data, near)
	if err != nil {
		return InvalidOID, err
	}
	if err := s.table.Put(oidKey(oid), ridValue(r)); err != nil {
		return InvalidOID, err
	}
	return oid, nil
}

// place writes the record (inline or overflow stub + chain) and returns
// its address.
func (s *Store) place(data []byte, near OID) (rid, error) {
	rec, err := s.buildRecord(data)
	if err != nil {
		return rid{}, err
	}
	// Near hint first; everything else shares placeRecord.
	if s.clustering && near != InvalidOID {
		if nr, err := s.lookup(near); err == nil {
			if r, ok, err := s.tryInsert(nr.pg, rec); err != nil {
				return rid{}, err
			} else if ok {
				return r, nil
			}
		}
	}
	return s.placeRecord(rec)
}

// placeRecord places an already-built record using the store's
// placement policy (scatter ring or sequential fill page, then a fresh
// page). Relocations during Update take the same path, so the policy
// governs the whole lifetime of a record.
func (s *Store) placeRecord(rec []byte) (rid, error) {
	if s.scatter > 0 {
		// Scatter mode: records go to random pages of a constantly
		// topped-up ring of open pages — never a shared fill page,
		// which would recreate the locality this mode exists to
		// destroy. Pages that no longer fit leave the ring.
		for len(s.recent) < s.scatter {
			id, h, err := s.sp.Alloc(page.TypeSlotted)
			if err != nil {
				return rid{}, err
			}
			h.Release()
			s.recent = append(s.recent, id)
		}
		for attempt := 0; len(s.recent) > 0 && attempt < 8; attempt++ {
			i := s.scatterRng.Intn(len(s.recent))
			r, ok, err := s.tryInsert(s.recent[i], rec)
			if err != nil {
				return rid{}, err
			}
			if ok {
				return r, nil
			}
			// Page full: drop it from the ring.
			s.recent[i] = s.recent[len(s.recent)-1]
			s.recent = s.recent[:len(s.recent)-1]
		}
	} else {
		// Sequential mode: the current fill page.
		cur, err := s.cursor()
		if err != nil {
			return rid{}, err
		}
		if cur != page.Invalid {
			if r, ok, err := s.tryInsert(cur, rec); err != nil {
				return rid{}, err
			} else if ok {
				return r, nil
			}
		}
	}
	// Fresh page, which becomes the fill page and joins the ring.
	id, h, err := s.sp.Alloc(page.TypeSlotted)
	if err != nil {
		return rid{}, err
	}
	sp := slotted.Wrap(h.Page())
	slot, ok := sp.Insert(rec)
	h.MarkDirty()
	h.Release()
	if !ok {
		return rid{}, errors.New("objstore: record does not fit an empty page")
	}
	if err := s.setCursor(id); err != nil {
		return rid{}, err
	}
	s.noteDataPage(id)
	return rid{id, uint16(slot)}, nil
}

// noteDataPage remembers an open data page for the scatter ring.
func (s *Store) noteDataPage(id page.ID) {
	if s.scatter <= 0 || len(s.recent) >= s.scatter {
		return
	}
	s.recent = append(s.recent, id)
}

func (s *Store) tryInsert(pg page.ID, rec []byte) (rid, bool, error) {
	h, err := s.sp.Get(pg)
	if err != nil {
		return rid{}, false, err
	}
	defer h.Release()
	if h.Page().Type() != page.TypeSlotted {
		return rid{}, false, nil
	}
	sp := slotted.Wrap(h.Page())
	if !sp.FreeForReserve(len(rec), s.reserve) {
		return rid{}, false, nil
	}
	slot, ok := sp.Insert(rec)
	if !ok {
		return rid{}, false, nil
	}
	h.MarkDirty()
	return rid{pg, uint16(slot)}, true, nil
}

// buildRecord returns the record bytes: inline payload or an overflow
// stub with the chain already written.
func (s *Store) buildRecord(data []byte) ([]byte, error) {
	if len(data) <= maxInline {
		rec := make([]byte, 1+len(data))
		rec[0] = flagInline
		copy(rec[1:], data)
		return rec, nil
	}
	first, err := s.writeChain(data)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, overflowStubSize)
	rec[0] = flagOverflow
	binary.LittleEndian.PutUint32(rec[1:], uint32(len(data)))
	binary.LittleEndian.PutUint64(rec[5:], uint64(first))
	return rec, nil
}

func (s *Store) writeChain(data []byte) (page.ID, error) {
	first := page.Invalid
	var prev store.Handle
	var prevPl []byte
	for off := 0; off < len(data); off += ovfChunk {
		end := off + ovfChunk
		if end > len(data) {
			end = len(data)
		}
		id, h, err := s.sp.Alloc(page.TypeOverflow)
		if err != nil {
			if prev != nil {
				prev.Release()
			}
			return page.Invalid, err
		}
		pl := h.Page().Payload()
		binary.LittleEndian.PutUint64(pl[ovfNextOff:], uint64(page.Invalid))
		binary.LittleEndian.PutUint16(pl[ovfUsedOff:], uint16(end-off))
		copy(pl[ovfDataOff:], data[off:end])
		if prev != nil {
			binary.LittleEndian.PutUint64(prevPl[ovfNextOff:], uint64(id))
			prev.Release()
		} else {
			first = id
		}
		prev, prevPl = h, pl
	}
	if prev != nil {
		prev.Release()
	}
	return first, nil
}

func (s *Store) freeChain(first page.ID) error {
	id := first
	for id != page.Invalid {
		h, err := s.sp.Get(id)
		if err != nil {
			return err
		}
		next := page.ID(binary.LittleEndian.Uint64(h.Page().Payload()[ovfNextOff:]))
		h.Release()
		if err := s.sp.Free(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// Update replaces the object's bytes, preserving its OID. The object
// stays on its page when the new value fits there; otherwise it is
// relocated and the object table updated.
func (s *Store) Update(oid OID, data []byte) error {
	r, err := s.lookup(oid)
	if err != nil {
		return err
	}
	h, err := s.sp.Get(r.pg)
	if err != nil {
		return err
	}
	sp := slotted.Wrap(h.Page())
	old, ok := sp.Get(int(r.slot))
	if !ok {
		h.Release()
		return fmt.Errorf("%w: stale address for oid %d", ErrNotFound, oid)
	}
	_, _, first, err := parseStub(old)
	if err != nil {
		h.Release()
		return err
	}
	// Free a previous overflow chain if any; we rewrite from scratch.
	if first != page.Invalid {
		h.Release()
		if err := s.freeChain(first); err != nil {
			return err
		}
		h, err = s.sp.Get(r.pg)
		if err != nil {
			return err
		}
		sp = slotted.Wrap(h.Page())
	}
	rec, err := s.buildRecord(data)
	if err != nil {
		h.Release()
		return err
	}
	if sp.Update(int(r.slot), rec) {
		h.MarkDirty()
		h.Release()
		return nil
	}
	// Does not fit in place: delete and re-place elsewhere.
	sp.Delete(int(r.slot))
	h.MarkDirty()
	h.Release()
	nr, err := s.placeRecord(rec)
	if err != nil {
		return err
	}
	return s.table.Put(oidKey(oid), ridValue(nr))
}

// Delete removes the object and frees any overflow chain. Data pages
// that become empty are returned to the free list.
func (s *Store) Delete(oid OID) error {
	r, err := s.lookup(oid)
	if err != nil {
		return err
	}
	h, err := s.sp.Get(r.pg)
	if err != nil {
		return err
	}
	sp := slotted.Wrap(h.Page())
	rec, ok := sp.Get(int(r.slot))
	if !ok {
		h.Release()
		return fmt.Errorf("%w: stale address for oid %d", ErrNotFound, oid)
	}
	_, _, chain, err := parseStub(rec)
	if err != nil {
		h.Release()
		return err
	}
	sp.Delete(int(r.slot))
	empty := sp.Count() == 0
	h.MarkDirty()
	h.Release()
	if chain != page.Invalid {
		if err := s.freeChain(chain); err != nil {
			return err
		}
	}
	if _, err := s.table.Delete(oidKey(oid)); err != nil {
		return err
	}
	if empty {
		// Never free the allocation cursor; the next Put may use it.
		if cur, err := s.cursor(); err != nil {
			return err
		} else if cur != r.pg {
			return s.sp.Free(r.pg)
		}
	}
	return nil
}

// Exists reports whether oid denotes a live object.
func (s *Store) Exists(oid OID) (bool, error) {
	_, ok, err := s.table.Get(oidKey(oid))
	return ok, err
}

// Count reports the number of live objects (a full table scan).
func (s *Store) Count() (int, error) { return s.table.Count() }

// Sweep deletes every object for which live reports false — the
// garbage-collection half of R10 ("garbage collection of
// non-referenced objects should also be supported"). Orphans arise
// when a crash separates object creation from the index insert that
// would reference it. It returns the number of objects freed.
func (s *Store) Sweep(live func(OID) bool) (freed int, err error) {
	// Collect first: deleting while scanning the table would disturb
	// the B+tree iteration.
	var dead []OID
	err = s.table.Scan(nil, nil, func(k, _ []byte) (bool, error) {
		oid := OID(btree.U64FromKey(k))
		if !live(oid) {
			dead = append(dead, oid)
		}
		return true, nil
	})
	if err != nil {
		return 0, err
	}
	for _, oid := range dead {
		if err := s.Delete(oid); err != nil {
			return freed, err
		}
		freed++
	}
	return freed, nil
}

// SamePage reports whether two objects currently share a data page
// (used by clustering tests and diagnostics).
func (s *Store) SamePage(a, b OID) (bool, error) {
	ra, err := s.lookup(a)
	if err != nil {
		return false, err
	}
	rb, err := s.lookup(b)
	if err != nil {
		return false, err
	}
	return ra.pg == rb.pg, nil
}

// PageOf returns the data page currently holding oid's record
// (diagnostics; the address changes if the object is relocated).
func (s *Store) PageOf(oid OID) (page.ID, error) {
	r, err := s.lookup(oid)
	if err != nil {
		return page.Invalid, err
	}
	return r.pg, nil
}

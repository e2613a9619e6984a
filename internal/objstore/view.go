package objstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"hypermodel/internal/btree"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/slotted"
	"hypermodel/internal/storage/store"
)

// The read path. Every read — View, ViewBatch and the copying Get,
// GetBatch and Scan built on them — goes through view, the one
// function that pins a data page and interprets a record stub.

// parseStub interprets a record as stored in a slotted page. An inline
// record yields its payload (aliasing rec) and first == page.Invalid;
// an overflow stub yields the chain's first page and total length.
func parseStub(rec []byte) (inline []byte, total int, first page.ID, err error) {
	if len(rec) == 0 {
		return nil, 0, page.Invalid, fmt.Errorf("objstore: corrupt record: empty slot")
	}
	switch rec[0] {
	case flagInline:
		return rec[1:], 0, page.Invalid, nil
	case flagOverflow:
		if len(rec) != overflowStubSize {
			return nil, 0, page.Invalid, fmt.Errorf("objstore: corrupt record: overflow stub of %d bytes", len(rec))
		}
		first = page.ID(binary.LittleEndian.Uint64(rec[5:]))
		if first == page.Invalid {
			return nil, 0, page.Invalid, fmt.Errorf("objstore: corrupt record: overflow stub without a chain")
		}
		return nil, int(binary.LittleEndian.Uint32(rec[1:])), first, nil
	default:
		return nil, 0, page.Invalid, fmt.Errorf("objstore: corrupt record flag %d", rec[0])
	}
}

// chainState is one overflow object's unfinished chain walk.
type chainState struct {
	idx  int // index into rids
	next page.ID
	buf  []byte // cap is the stub's total length
}

// view hands each addressed record's object bytes to fn, visiting
// rids in the given order (nil: as listed) and pinning a data page
// once per run of addresses that share it. An inline object is passed
// in place (pinned true): the slice aliases the pinned page, is valid
// only until fn returns, and must not be modified or retained. An
// overflow object (pinned false) is assembled into a private buffer
// after every stub has been seen: the chains are walked in lockstep,
// one bulk prefetch per chain generation, so spilled objects cost one
// round trip per chain hop for the whole batch, not per object. Their
// callbacks therefore come after all inline ones.
func (s *Store) view(rids []rid, order []int, fn func(i int, data []byte, pinned bool) error) error {
	var chains []chainState
	var h store.Handle
	var cur page.ID
	for k := range rids {
		i := k
		if order != nil {
			i = order[k]
		}
		r := rids[i]
		if h == nil || r.pg != cur {
			if h != nil {
				h.Release()
			}
			var err error
			h, err = s.sp.Get(r.pg)
			if err != nil {
				return err
			}
			cur = r.pg
		}
		rec, ok := slotted.Wrap(h.Page()).Get(int(r.slot))
		if !ok {
			h.Release()
			return fmt.Errorf("%w: stale address %d/%d", ErrNotFound, r.pg, r.slot)
		}
		inline, total, first, err := parseStub(rec)
		if err == nil {
			if first == page.Invalid {
				err = fn(i, inline, true)
			} else {
				chains = append(chains, chainState{idx: i, next: first, buf: make([]byte, 0, total)})
			}
		}
		if err != nil {
			h.Release()
			return err
		}
	}
	if h != nil {
		h.Release()
	}
	pf, bulk := s.sp.(Prefetcher)
	for len(chains) > 0 {
		if bulk && len(chains) > 1 {
			gen := make([]page.ID, 0, len(chains))
			for _, c := range chains {
				gen = append(gen, c.next)
			}
			slices.Sort(gen)
			if err := pf.Prefetch(gen); err != nil {
				return err
			}
		}
		live := chains[:0]
		for _, c := range chains {
			h, err := s.sp.Get(c.next)
			if err != nil {
				return err
			}
			pl := h.Page().Payload()
			used := int(binary.LittleEndian.Uint16(pl[ovfUsedOff:]))
			c.buf = append(c.buf, pl[ovfDataOff:ovfDataOff+used]...)
			c.next = page.ID(binary.LittleEndian.Uint64(pl[ovfNextOff:]))
			h.Release()
			if c.next != page.Invalid {
				live = append(live, c)
				continue
			}
			if len(c.buf) != cap(c.buf) {
				return fmt.Errorf("objstore: overflow chain length %d, stub says %d", len(c.buf), cap(c.buf))
			}
			if err := fn(c.idx, c.buf, false); err != nil {
				return err
			}
		}
		chains = live
	}
	return nil
}

// viewAt is view for a single address.
func (s *Store) viewAt(r rid, fn func(data []byte, pinned bool) error) error {
	one := [1]rid{r}
	return s.view(one[:], nil, func(_ int, data []byte, pinned bool) error { return fn(data, pinned) })
}

// viewOne is view for a single object.
func (s *Store) viewOne(oid OID, fn func(data []byte, pinned bool) error) error {
	r, err := s.lookup(oid)
	if err != nil {
		return err
	}
	return s.viewAt(r, fn)
}

// viewBatch is view for a list of objects. Their addresses come from
// one walk of the object table in OID order, so OIDs that share a
// table leaf share its pin. The objects are then visited grouped by
// data page, so every page is fetched and pinned once per batch
// regardless of how many objects it holds. When the underlying Space
// supports Prefetch, all of the batch's data pages are requested in
// bulk before any is read.
func (s *Store) viewBatch(oids []OID, fn func(i int, data []byte, pinned bool) error) error {
	if len(oids) == 0 {
		return nil
	}
	order := make([]int, len(oids))
	for i := range order {
		order[i] = i
	}
	if !slices.IsSorted(oids) {
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(oids[a], oids[b]) })
	}
	rids := make([]rid, len(oids))
	var key [8]byte
	err := s.table.ViewSorted(len(order), func(k int) []byte {
		binary.BigEndian.PutUint64(key[:], uint64(oids[order[k]])) // oidKey, in place
		return key[:]
	}, func(k int, v []byte, found bool) error {
		i := order[k]
		if !found {
			return &BatchError{Index: i, Err: fmt.Errorf("%w: oid %d", ErrNotFound, oids[i])}
		}
		rids[i] = ridFromValue(v)
		return nil
	})
	if err != nil {
		return err
	}
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := rids[a], rids[b]
		if ra.pg != rb.pg {
			return cmp.Compare(ra.pg, rb.pg)
		}
		return cmp.Compare(ra.slot, rb.slot)
	})
	if pf, ok := s.sp.(Prefetcher); ok {
		distinct := make([]page.ID, 0, len(order))
		for _, i := range order {
			if n := len(distinct); n == 0 || distinct[n-1] != rids[i].pg {
				distinct = append(distinct, rids[i].pg)
			}
		}
		if err := pf.Prefetch(distinct); err != nil {
			return err
		}
	}
	return s.view(rids, order, fn)
}

// View calls fn with the object's bytes, without copying them when the
// object is stored inline: the slice then aliases the pinned data page.
// It is valid only until fn returns and must not be modified or
// retained; fn must not write to the store.
func (s *Store) View(oid OID, fn func(data []byte) error) error {
	return s.viewOne(oid, func(data []byte, _ bool) error { return fn(data) })
}

// ViewBatch calls fn(i, bytes of oids[i]) for every listed object under
// View's contract. Objects are visited grouped by data page, not in
// list order, and objects that spilled into overflow pages come last.
// An OID that denotes no live object fails the batch, before any
// callback, with a *BatchError carrying its index in oids.
func (s *Store) ViewBatch(oids []OID, fn func(i int, data []byte) error) error {
	return s.viewBatch(oids, func(i int, data []byte, _ bool) error { return fn(i, data) })
}

// owned returns bytes the caller may keep: a copy of a pinned slice,
// or the private buffer of an overflow object as it is.
func owned(data []byte, pinned bool) []byte {
	if pinned {
		return append([]byte(nil), data...)
	}
	return data
}

// Get returns a copy of the object's bytes.
func (s *Store) Get(oid OID) (out []byte, err error) {
	err = s.viewOne(oid, func(data []byte, pinned bool) error {
		out = owned(data, pinned)
		return nil
	})
	return out, err
}

// GetBatch returns a copy of each listed object's bytes, out[i] for
// oids[i].
func (s *Store) GetBatch(oids []OID) ([][]byte, error) {
	if len(oids) == 0 {
		return nil, nil
	}
	out := make([][]byte, len(oids))
	err := s.viewBatch(oids, func(i int, data []byte, pinned bool) error {
		out[i] = owned(data, pinned)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Scan visits every object in ascending OID order. The data slice is a
// copy and may be retained. The callback returns false to stop early.
func (s *Store) Scan(fn func(oid OID, data []byte) (bool, error)) error {
	return s.table.Scan(nil, nil, func(k, v []byte) (bool, error) {
		var data []byte
		err := s.viewAt(ridFromValue(v), func(d []byte, pinned bool) error {
			data = owned(d, pinned)
			return nil
		})
		if err != nil {
			return false, err
		}
		return fn(OID(btree.U64FromKey(k)), data)
	})
}

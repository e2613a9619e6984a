package reldb

import (
	"fmt"
	"sort"

	"hypermodel/internal/btree"
	"hypermodel/internal/hyper"
)

// Batched reads (hyper.BatchReader). A BFS frontier of the test
// database is a contiguous uniqueId run, so a dense batch resolves
// with one B+tree range scan per table — one root-to-leaf descent and
// a sequential leaf walk — instead of one descent per node. Sparse
// batches (random samples) fall back to per-id probes in ascending key
// order.

// batchPlan is the shared preamble of every batch method: the sorted
// distinct ids, a per-distinct found flag, and the input mapping.
type batchPlan struct {
	ids      []hyper.NodeID // the caller's ids, in input order
	distinct []hyper.NodeID // sorted, deduplicated
	found    []bool         // found[i] ↔ distinct[i], set by the scan/probe
}

func newBatchPlan(ids []hyper.NodeID) *batchPlan {
	distinct := append([]hyper.NodeID(nil), ids...)
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	w := 0
	for i, id := range distinct {
		if i == 0 || id != distinct[w-1] {
			distinct[w] = id
			w++
		}
	}
	distinct = distinct[:w]
	return &batchPlan{ids: ids, distinct: distinct, found: make([]bool, w)}
}

// dense reports whether the ids cover their key span tightly enough
// that one range scan beats per-id probes: a scan visits every row in
// the span, so sparse batches would mostly skip foreign rows.
func (p *batchPlan) dense() bool {
	span := uint64(p.distinct[len(p.distinct)-1]) - uint64(p.distinct[0]) + 1
	return span <= 4*uint64(len(p.distinct))
}

// pos returns id's index in the distinct slice.
func (p *batchPlan) pos(id hyper.NodeID) int {
	return sort.Search(len(p.distinct), func(i int) bool { return p.distinct[i] >= id })
}

// missErr builds the *hyper.BatchError for the first input id whose
// distinct slot was never found, or returns nil if all were.
func (p *batchPlan) missErr() error {
	all := true
	for _, f := range p.found {
		if !f {
			all = false
			break
		}
	}
	if all {
		return nil
	}
	for j, id := range p.ids {
		if !p.found[p.pos(id)] {
			return &hyper.BatchError{
				Index: j,
				Err:   fmt.Errorf("%w: node %d", hyper.ErrNotFound, id),
			}
		}
	}
	return nil
}

// markExisting sets found flags from the NODE table: one range scan
// when dense, per-id probes otherwise.
func (p *batchPlan) markExisting(d *DB) error {
	if p.dense() {
		lo := idKey(p.distinct[0])
		hi := btree.U64Key(uint64(p.distinct[len(p.distinct)-1]) + 1)
		i := 0
		return d.node.Scan(lo, hi, func(k, _ []byte) (bool, error) {
			id := hyper.NodeID(btree.U64FromKey(k))
			for i < len(p.distinct) && p.distinct[i] < id {
				i++
			}
			if i < len(p.distinct) && p.distinct[i] == id {
				p.found[i] = true
			}
			return true, nil
		})
	}
	for i, id := range p.distinct {
		ok, err := d.existsRow(id)
		if err != nil {
			return err
		}
		p.found[i] = ok
	}
	return nil
}

// scanOwnedBatch collects the rows of an owner-keyed relationship
// table for every distinct id: one range scan over the whole span when
// dense, one bounded scan per id otherwise. visit receives the slot in
// the distinct slice and the row value, in (owner, seq) order.
func (p *batchPlan) scanOwnedBatch(t *btree.Tree, visit func(slot int, v []byte) error) error {
	if p.dense() {
		lo := btree.U64U32Key(uint64(p.distinct[0]), 0)
		hi := btree.U64Key(uint64(p.distinct[len(p.distinct)-1]) + 1)
		i := 0
		return t.Scan(lo, hi, func(k, v []byte) (bool, error) {
			owner, _ := btree.U64U32FromKey(k)
			for i < len(p.distinct) && uint64(p.distinct[i]) < owner {
				i++
			}
			if i < len(p.distinct) && uint64(p.distinct[i]) == owner {
				return true, visit(i, v)
			}
			return true, nil
		})
	}
	for i, id := range p.distinct {
		i := i
		err := t.Scan(btree.U64U32Key(uint64(id), 0), btree.U64Key(uint64(id)+1),
			func(_, v []byte) (bool, error) { return true, visit(i, v) })
		if err != nil {
			return err
		}
	}
	return nil
}

// gather maps per-distinct values back onto the input order.
func gather[T any](p *batchPlan, vals []T) []T {
	out := make([]T, len(p.ids))
	for i, id := range p.ids {
		out[i] = vals[p.pos(id)]
	}
	return out
}

// NodesBatch returns the attributes of each listed node.
func (d *DB) NodesBatch(ids []hyper.NodeID) ([]hyper.Node, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	p := newBatchPlan(ids)
	vals := make([]hyper.Node, len(p.distinct))
	if p.dense() {
		lo := idKey(p.distinct[0])
		hi := btree.U64Key(uint64(p.distinct[len(p.distinct)-1]) + 1)
		i := 0
		err := d.node.Scan(lo, hi, func(k, v []byte) (bool, error) {
			id := hyper.NodeID(btree.U64FromKey(k))
			for i < len(p.distinct) && p.distinct[i] < id {
				i++
			}
			if i < len(p.distinct) && p.distinct[i] == id {
				n, err := decodeNodeRow(id, v)
				if err != nil {
					return false, err
				}
				vals[i] = n
				p.found[i] = true
			}
			return true, nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		for i, id := range p.distinct {
			n, ok, err := d.nodeRow(id)
			if err != nil {
				return nil, err
			}
			vals[i] = n
			p.found[i] = ok
		}
	}
	if err := p.missErr(); err != nil {
		return nil, err
	}
	return gather(p, vals), nil
}

// HundredBatch returns the hundred attribute of each listed node.
func (d *DB) HundredBatch(ids []hyper.NodeID) ([]int32, error) {
	nodes, err := d.NodesBatch(ids)
	if err != nil {
		return nil, err
	}
	out := make([]int32, len(nodes))
	for i, n := range nodes {
		out[i] = n.Hundred
	}
	return out, nil
}

// ownedBatch factors ChildrenBatch and PartsBatch: existence from the
// NODE table, then the relationship rows per distinct id.
func (d *DB) ownedBatch(t *btree.Tree, ids []hyper.NodeID) ([][]hyper.NodeID, error) {
	p := newBatchPlan(ids)
	if err := p.markExisting(d); err != nil {
		return nil, err
	}
	if err := p.missErr(); err != nil {
		return nil, err
	}
	vals := make([][]hyper.NodeID, len(p.distinct))
	err := p.scanOwnedBatch(t, func(slot int, v []byte) error {
		vals[slot] = append(vals[slot], hyper.NodeID(rowU64(v)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return gather(p, vals), nil
}

// ChildrenBatch returns each node's ordered children.
func (d *DB) ChildrenBatch(ids []hyper.NodeID) ([][]hyper.NodeID, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	return d.ownedBatch(d.child, ids)
}

// PartsBatch returns each node's M-N parts.
func (d *DB) PartsBatch(ids []hyper.NodeID) ([][]hyper.NodeID, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	return d.ownedBatch(d.part, ids)
}

// RefsToBatch returns each node's outgoing association edges.
func (d *DB) RefsToBatch(ids []hyper.NodeID) ([][]hyper.Edge, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	p := newBatchPlan(ids)
	if err := p.markExisting(d); err != nil {
		return nil, err
	}
	if err := p.missErr(); err != nil {
		return nil, err
	}
	vals := make([][]hyper.Edge, len(p.distinct))
	err := p.scanOwnedBatch(d.ref, func(slot int, v []byte) error {
		other, offFrom, offTo, err := decodeRefRow(v)
		if err != nil {
			return err
		}
		vals[slot] = append(vals[slot], hyper.Edge{
			From: p.distinct[slot], To: other, OffsetFrom: offFrom, OffsetTo: offTo,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return gather(p, vals), nil
}

// nodeRow probes the NODE table for one decoded row, decoding it in
// place under the leaf's pin.
func (d *DB) nodeRow(id hyper.NodeID) (hyper.Node, bool, error) {
	var n hyper.Node
	ok, err := d.node.View(idKey(id), func(row []byte) (err error) {
		n, err = decodeNodeRow(id, row)
		return err
	})
	if err != nil || !ok {
		return hyper.Node{}, false, err
	}
	return n, true, nil
}

// existsRow probes the NODE table for bare existence.
func (d *DB) existsRow(id hyper.NodeID) (bool, error) {
	return d.node.View(idKey(id), func([]byte) error { return nil })
}

package oodb

import (
	"errors"
	"fmt"

	"hypermodel/internal/hyper"
	"hypermodel/internal/objstore"
)

var _ hyper.FrontierPrefetcher = (*DB)(nil)

// Batched reads (hyper.BatchReader): the object store's ViewBatch visits
// a frontier's objects grouped by data page, so each page is fetched
// and pinned once per batch — and over the page server, all of a
// frontier's missing pages arrive in one framed round trip instead of
// one per object.

// viewBatch activates every listed node's object and returns
// get(i, view of ids[i]) for each, decoded in place under view's
// contract.
func viewBatch[T any](d *DB, ids []hyper.NodeID, get func(i int, v objView) T) ([]T, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	oids := make([]objstore.OID, len(ids))
	for i, id := range ids {
		oid, err := d.oidOf(id)
		if err != nil {
			return nil, &hyper.BatchError{Index: i, Err: err}
		}
		oids[i] = oid
	}
	out := make([]T, len(ids))
	err := d.viewObjects(oids, func(i int, v objView) { out[i] = get(i, v) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// viewObjects activates every listed object through one batch read and
// calls fn(i, view of oids[i]) for each, in the batch's page order.
// Failures come back as a *hyper.BatchError at the caller's index: an
// object that is gone wraps hyper.ErrNotFound, as a single read's does.
func (d *DB) viewObjects(oids []objstore.OID, fn func(i int, v objView)) error {
	err := d.objs.ViewBatch(oids, func(i int, data []byte) error {
		v, err := parseObject(data)
		if err != nil {
			return &hyper.BatchError{Index: i, Err: err}
		}
		fn(i, v)
		return nil
	})
	var be *objstore.BatchError
	if errors.As(err, &be) && errors.Is(be.Err, objstore.ErrNotFound) {
		return &hyper.BatchError{Index: be.Index, Err: fmt.Errorf("%w: oid %d", hyper.ErrNotFound, oids[be.Index])}
	}
	return err
}

// PrefetchFrontier (hyper.FrontierPrefetcher) starts warming the page
// cache with the listed nodes' objects, without blocking on the fetch.
// Over the page-server client the next BFS frontier's opGetPages round
// trip runs while the traversal computes on the current level. The
// kick is advisory: nodes whose OIDs cannot be resolved are skipped,
// and the returned wait function's error may be ignored — the
// synchronous batch read that follows re-fetches and surfaces any real
// failure.
func (d *DB) PrefetchFrontier(ids []hyper.NodeID) (wait func() error) {
	oids := make([]objstore.OID, 0, len(ids))
	for _, id := range ids {
		if oid, err := d.oidOf(id); err == nil {
			oids = append(oids, oid)
		}
	}
	return d.objs.PrefetchOIDs(oids)
}

// NodesBatch returns the attributes of each listed node.
func (d *DB) NodesBatch(ids []hyper.NodeID) ([]hyper.Node, error) {
	return viewBatch(d, ids, func(_ int, v objView) hyper.Node { return v.node() })
}

// HundredBatch returns the hundred attribute of each listed node.
func (d *DB) HundredBatch(ids []hyper.NodeID) ([]int32, error) {
	return viewBatch(d, ids, func(_ int, v objView) int32 { return v.hundred() })
}

// relatedBatch returns the uniqueIds one relationship section of each
// listed node points at.
func (d *DB) relatedBatch(ids []hyper.NodeID, r relation) ([][]hyper.NodeID, error) {
	return viewBatch(d, ids, func(_ int, v objView) []hyper.NodeID {
		d.learn(v, r)
		return v.ids(r)
	})
}

// ChildrenBatch returns each node's ordered children.
func (d *DB) ChildrenBatch(ids []hyper.NodeID) ([][]hyper.NodeID, error) {
	return d.relatedBatch(ids, relChildren)
}

// PartsBatch returns each node's M-N parts.
func (d *DB) PartsBatch(ids []hyper.NodeID) ([][]hyper.NodeID, error) {
	return d.relatedBatch(ids, relParts)
}

// RefsToBatch returns each node's outgoing association edges.
func (d *DB) RefsToBatch(ids []hyper.NodeID) ([][]hyper.Edge, error) {
	return viewBatch(d, ids, func(i int, v objView) []hyper.Edge {
		d.learn(v, relRefsTo)
		return v.edges(relRefsTo, ids[i])
	})
}

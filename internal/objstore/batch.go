package objstore

import (
	"fmt"

	"hypermodel/internal/storage/page"
)

// BatchError is the failure of one item of a batch read: Index is the
// item's position in the caller's list, whatever order the read
// visited it in.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("objstore: batch item %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// Prefetcher is the optional bulk-fetch capability of a page Space. A
// Space backed by a page server implements it by requesting all listed
// pages in one framed round trip; Prefetch only warms the cache, so
// implementations may ignore pages that are already resident.
type Prefetcher interface {
	Prefetch(ids []page.ID) error
}

// AsyncPrefetcher is the optional asynchronous bulk-fetch capability
// of a page Space: PrefetchAsync starts warming the cache and returns
// immediately, so the fetch overlaps with the caller's computation.
// The returned wait function blocks until the fetch settles and
// reports its error; it must be called before the transaction commits
// or aborts.
type AsyncPrefetcher interface {
	PrefetchAsync(ids []page.ID) (wait func() error)
}

// PrefetchOIDs starts warming the cache with every listed object's
// data page, without blocking on the fetch. It returns nil when the
// Space cannot fetch asynchronously (the caller simply proceeds to its
// synchronous reads). Only the objects' primary data pages are warmed
// — overflow chains reveal themselves one hop at a time and are left
// to the batch read's lockstep walk.
func (s *Store) PrefetchOIDs(oids []OID) (wait func() error) {
	ap, ok := s.sp.(AsyncPrefetcher)
	if !ok || len(oids) == 0 {
		return nil
	}
	distinct := make([]page.ID, 0, len(oids))
	seen := make(map[page.ID]bool, len(oids))
	for _, oid := range oids {
		r, err := s.lookup(oid)
		if err != nil {
			continue // advisory: the synchronous read will surface it
		}
		if !seen[r.pg] {
			seen[r.pg] = true
			distinct = append(distinct, r.pg)
		}
	}
	if len(distinct) == 0 {
		return nil
	}
	return ap.PrefetchAsync(distinct)
}

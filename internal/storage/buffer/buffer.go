// Package buffer implements the page buffer pool.
//
// The pool caches page images in memory with LRU replacement. It is the
// component that produces the HyperModel benchmark's cold/warm
// distinction: a cold run starts with an empty pool (every access is a
// disk or server fetch), a warm run finds the working set resident.
//
// A warm operation is a chain of pins, so a pin allocates nothing. The
// eviction list is an intrusive ring: the frames themselves carry the
// links, threaded through one sentinel per shard. Every frame owns one
// Handle, made when the frame is inserted and handed out again for
// every pin (see HandleOf); it holds no per-pin state, only the pool
// and the frame.
//
// The pool is no-steal: dirty frames are never evicted, because the
// write-ahead log is redo-only and an early write-back of uncommitted
// data could not be undone after a crash. If every frame is dirty or
// pinned the pool grows past its nominal capacity; the store bounds
// this by checkpointing.
//
// The pool keeps the set of dirty frames itself, so a commit's
// DirtyFrames and MarkAllClean cost what it dirtied, not what is
// resident.
//
// Concurrency: the frame table is sharded so parallel readers do not
// serialize behind one mutex (small pools collapse to a single shard to
// keep exact global LRU order). Hit/miss/eviction counters and pin
// counts are atomic. Each frame of a New pool carries two page images:
// the working image (Frame.Page), owned by the single writer, and an
// immutable committed snapshot published with an atomic pointer, which
// concurrent readers access without pinning the frame at all (see
// Snapshot). A NewPinOnly pool, for a cache read only through pins,
// keeps no snapshots.
package buffer

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"hypermodel/internal/storage/page"
)

// Frame is a cached page together with its bookkeeping.
type Frame struct {
	ID page.ID
	// Page is the working image. It belongs to the single writer: only
	// one goroutine at a time may mutate it (and must call MarkDirty
	// before Release). Concurrent readers never touch it — they read
	// the committed snapshot instead.
	Page  *page.Page
	snap  atomic.Pointer[page.Page] // committed copy, distinct from Page; nil in a NewPinOnly pool
	pins  atomic.Int32
	dirty atomic.Bool
	// prev and next link the frame into its shard's eviction ring;
	// both are nil when it is not listed. Only clean, unpinned frames
	// are listed; everything else is ineligible, which keeps eviction
	// O(1) even when the pool is full of dirty pages (bulk loads under
	// the no-steal policy). Guarded by the shard mutex.
	prev, next *Frame
	// dirtyAt is 1 + the frame's index in its shard's dirty list, or 0
	// when it is not listed. Guarded by the shard mutex.
	dirtyAt int
	handle  Handle // the frame's one handle, reused by every pin
}

// Handle is a pinned page as the page stores hand it out: it releases
// and dirties through the pool that owns the frame. A frame has exactly
// one Handle, so handing it out costs nothing; like the frame, it may
// be used only while the caller holds a pin.
type Handle struct {
	p *Pool
	f *Frame
}

// HandleOf returns the frame's handle. The pin the caller holds on f
// moves to the handle: it ends with the handle's Release.
func HandleOf(f *Frame) *Handle { return &f.handle }

// Page returns the frame's working image.
func (h *Handle) Page() *page.Page { return h.f.Page }

// MarkDirty flags the frame as modified (see Pool.MarkDirty).
func (h *Handle) MarkDirty() { h.p.MarkDirty(h.f) }

// Release unpins the frame (see Pool.Release).
func (h *Handle) Release() { h.p.Release(h.f) }

// Dirty reports whether the frame has modifications that are not yet in
// the main database file.
func (f *Frame) Dirty() bool { return f.dirty.Load() }

// Snapshot returns the frame's committed page image. The image is
// immutable — commits publish a fresh copy rather than mutating it — so
// the caller may read it without holding any pin or lock, even after
// the frame is evicted. It is nil for a frame of a NewPinOnly pool.
func (f *Frame) Snapshot() *page.Page { return f.snap.Load() }

// InstallSnapshot publishes a copy of the working image as the new
// committed snapshot. Only the committing writer may call it, at a
// point where the working image is quiescent.
func (f *Frame) InstallSnapshot() {
	cp := *f.Page
	f.snap.Store(&cp)
}

// Stats are cumulative buffer pool counters.
type Stats struct {
	Hits      uint64 // Get found the page resident
	Misses    uint64 // Get did not find the page
	Evictions uint64 // clean frames evicted to make room
}

// shardCount is the number of frame-table shards for full-size pools.
// It is a power of two so shard selection is a mask.
const shardCount = 16

// shard is one slice of the frame table with its own lock and LRU.
type shard struct {
	mu     sync.Mutex
	cap    int
	frames map[page.ID]*Frame
	// lru is the sentinel of the ring of evictable (clean, unpinned)
	// frames: lru.next is the most recently released, lru.prev the
	// next victim.
	lru Frame
	// dirty lists the resident frames flagged dirty, in no order.
	dirty []*Frame
}

// Pool is an LRU page cache.
type Pool struct {
	shards []shard
	mask   uint64
	cap    int
	snaps  bool // inserts publish a committed snapshot

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	ndirty    atomic.Int64 // total length of the shards' dirty lists
}

// New returns a pool that aims to hold at most capacity pages.
// Capacity must be at least 1. Pools smaller than 8 pages per shard use
// a single shard, which preserves exact global LRU order for the tiny
// pools the tests and cache-sweep experiments build. Every inserted
// page gets a committed snapshot (see Frame.Snapshot), which the
// store's pin-free readers need.
func New(capacity int) *Pool { return newPool(capacity, true) }

// NewPinOnly returns a pool like New whose frames keep no committed
// snapshot, saving a page copy per insert: for a cache that is read
// only through pins, as the page-server client's is. Snapshot returns
// nil for its frames.
func NewPinOnly(capacity int) *Pool { return newPool(capacity, false) }

func newPool(capacity int, snaps bool) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	n := shardCount
	if capacity < 8*shardCount {
		n = 1
	}
	p := &Pool{shards: make([]shard, n), mask: uint64(n - 1), cap: capacity, snaps: snaps}
	for i := range p.shards {
		c := capacity / n
		if i < capacity%n {
			c++
		}
		sh := &p.shards[i]
		sh.cap = c
		sh.frames = make(map[page.ID]*Frame, c)
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
	}
	return p
}

func (p *Pool) shardFor(id page.ID) *shard {
	return &p.shards[uint64(id)&p.mask]
}

// Get returns the resident frame for id, pinned, or nil if the page is
// not cached.
func (p *Pool) Get(id page.ID) *Frame {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if !ok {
		p.misses.Add(1)
		return nil
	}
	p.hits.Add(1)
	sh.pinLocked(f)
	return f
}

// Snapshot returns the committed image of a resident page, or nil on a
// miss (and always in a NewPinOnly pool). The image is immutable, so
// the frame is not pinned: the caller may read the returned page for as
// long as it likes regardless of what happens to the frame. This is the
// concurrent readers' fast path.
func (p *Pool) Snapshot(id page.ID) *page.Page {
	sh := p.shardFor(id)
	sh.mu.Lock()
	f, ok := sh.frames[id]
	sh.mu.Unlock()
	if !ok {
		p.misses.Add(1)
		return nil
	}
	p.hits.Add(1)
	return f.Snapshot()
}

// Insert adds a page image (typically just read from disk) to the pool
// and returns its frame, pinned. Inserting a page that is already
// resident is a programming error and panics; racing readers use
// GetOrInsert instead.
func (p *Pool) Insert(id page.ID, img *page.Page) *Frame {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.frames[id]; ok {
		panic("buffer: Insert of already-resident page")
	}
	return p.insertLocked(sh, id, img)
}

// GetOrInsert returns the resident frame for id, pinned, inserting img
// as its image if the page is not cached. It reports whether img was
// installed. This resolves the double-miss race: two readers can both
// miss, both read the page from disk, and both call GetOrInsert — the
// first installs, the second gets the first's frame. Neither hit nor
// miss counters move (the preceding Get or Snapshot already counted the
// miss).
func (p *Pool) GetOrInsert(id page.ID, img *page.Page) (*Frame, bool) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[id]; ok {
		sh.pinLocked(f)
		return f, false
	}
	return p.insertLocked(sh, id, img), true
}

func (p *Pool) insertLocked(sh *shard, id page.ID, img *page.Page) *Frame {
	p.makeRoomLocked(sh)
	f := &Frame{ID: id, Page: img}
	f.handle = Handle{p, f}
	f.pins.Store(1)
	if p.snaps {
		cp := *img
		f.snap.Store(&cp)
	}
	sh.frames[id] = f
	return f
}

func (sh *shard) pinLocked(f *Frame) {
	sh.unlistLocked(f)
	f.pins.Add(1)
}

func (sh *shard) unlistLocked(f *Frame) {
	if f.next != nil {
		f.prev.next, f.next.prev = f.next, f.prev
		f.prev, f.next = nil, nil
	}
}

// relistLocked makes f evictable if it is clean, unpinned, and still
// the shard's frame for its page. The residency check matters after
// Drop/DropClean/Forget: a handle released later must not re-enter the
// eviction list as a zombie, where its eventual eviction would delete
// whatever fresh frame now holds the same page ID.
func (sh *shard) relistLocked(f *Frame) {
	if f.next == nil && f.pins.Load() == 0 && !f.dirty.Load() {
		if cur, ok := sh.frames[f.ID]; ok && cur == f {
			f.prev, f.next = &sh.lru, sh.lru.next
			f.next.prev = f
			sh.lru.next = f
		}
	}
}

// Release unpins a frame previously returned by Get or Insert. When the
// pin count drops to zero the frame becomes eligible for eviction (once
// clean), at the most recently used end of the ring: the order is the
// order of releases, so it is the exact LRU order of last use.
func (p *Pool) Release(f *Frame) {
	sh := p.shardFor(f.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f.pins.Load() <= 0 {
		panic("buffer: Release of unpinned frame")
	}
	f.pins.Add(-1)
	sh.relistLocked(f)
}

// makeRoomLocked evicts the least recently used evictable frames until
// the shard is under its capacity. With every frame dirty or pinned the
// eviction list is empty and the shard grows instead (no-steal).
func (p *Pool) makeRoomLocked(sh *shard) {
	for len(sh.frames) >= sh.cap {
		f := sh.lru.prev
		if f == &sh.lru {
			return // everything dirty or pinned: allow growth
		}
		sh.unlistLocked(f)
		delete(sh.frames, f.ID)
		p.evictions.Add(1)
	}
}

// MarkDirty flags a (pinned) frame as modified, removing it from the
// eviction candidates and adding it to the dirty set until the next
// commit cleans it. Marking an already-dirty frame costs one atomic
// load: only the single writer dirties or cleans frames, so the flag
// cannot change under it.
func (p *Pool) MarkDirty(f *Frame) {
	if f.dirty.Load() {
		return
	}
	sh := p.shardFor(f.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f.dirty.Store(true)
	sh.unlistLocked(f)
	// A frame dropped or forgotten while its handle was held is no
	// longer the page's frame; like the rest of its work, its
	// modification is discarded, never logged.
	if cur, ok := sh.frames[f.ID]; ok && cur == f {
		sh.dirty = append(sh.dirty, f)
		f.dirtyAt = len(sh.dirty)
		p.ndirty.Add(1)
	}
}

// HasDirty reports whether any resident frame is dirty.
func (p *Pool) HasDirty() bool { return p.ndirty.Load() > 0 }

// DirtyFrames returns the frames currently flagged dirty, sorted by
// page ID. The order matters: the commit path logs and writes back the
// dirty set in this order, so a given workload produces byte-identical
// WAL and file images on every machine — which the seeded crash-point
// sweeps rely on. The frames are not pinned; the caller must hold the
// store's writer lock while using them.
func (p *Pool) DirtyFrames() []*Frame {
	n := p.ndirty.Load()
	if n == 0 {
		return nil
	}
	out := make([]*Frame, 0, n)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		out = append(out, sh.dirty...)
		sh.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b *Frame) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// MarkAllClean clears the dirty flag on every dirty frame (after the
// images have been made durable via the WAL or the main file),
// returning the unpinned ones to the eviction candidates.
func (p *Pool) MarkAllClean() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, f := range sh.dirty {
			f.dirty.Store(false)
			f.dirtyAt = 0
			sh.relistLocked(f)
		}
		p.ndirty.Add(-int64(len(sh.dirty)))
		clear(sh.dirty)
		sh.dirty = sh.dirty[:0]
		sh.mu.Unlock()
	}
}

// Forget removes a page from the pool regardless of state. Used when a
// page is freed; a dirty frame's modification is discarded.
func (p *Pool) Forget(id page.ID) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if !ok {
		return
	}
	sh.unlistLocked(f)
	if f.dirtyAt != 0 {
		// Swap-remove from the dirty list.
		i, last := f.dirtyAt-1, len(sh.dirty)-1
		sh.dirty[i] = sh.dirty[last]
		sh.dirty[i].dirtyAt = i + 1
		sh.dirty[last] = nil
		sh.dirty = sh.dirty[:last]
		f.dirtyAt = 0
		p.ndirty.Add(-1)
	}
	delete(sh.frames, id)
}

// Drop discards every frame. It is the in-process equivalent of closing
// and reopening the database: the next access to any page is cold.
// Dropping while dirty frames exist loses their modifications, so the
// store only calls this after a commit or checkpoint.
func (p *Pool) Drop() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		clear(sh.frames) // in place: the next cold run refills the same buckets
		// Listed frames keep stale links: they are unpinned and clean,
		// so no pin holder or dirty list reaches them again, and
		// resetting only the sentinel keeps Drop O(1).
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		for _, f := range sh.dirty {
			f.dirtyAt = 0
		}
		p.ndirty.Add(-int64(len(sh.dirty)))
		sh.dirty = nil
		sh.mu.Unlock()
	}
}

// DropClean discards every clean, unpinned frame. This is the remote
// client's reconnect invalidation: pages fetched over a dead session
// may be stale by the time the connection is back, but dirty frames
// exist nowhere else (no-steal) and pinned frames are still in use by
// a caller, so both stay resident.
func (p *Pool) DropClean() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id, f := range sh.frames {
			if !f.dirty.Load() && f.pins.Load() == 0 {
				sh.unlistLocked(f)
				delete(sh.frames, id)
			}
		}
		sh.mu.Unlock()
	}
}

// ResidentIDs lists the pages currently in the pool, in unspecified
// order.
func (p *Pool) ResidentIDs() []page.ID {
	var out []page.ID
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id := range sh.frames {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	return out
}

// Len reports the number of resident pages.
func (p *Pool) Len() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cumulative counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
	}
}

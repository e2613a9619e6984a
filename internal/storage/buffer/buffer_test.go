package buffer

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hypermodel/internal/storage/page"
)

func TestGetMissThenInsertHit(t *testing.T) {
	p := New(4)
	if f := p.Get(1); f != nil {
		t.Fatal("hit on empty pool")
	}
	f := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(f)
	if f := p.Get(1); f == nil {
		t.Fatal("miss after insert")
	} else {
		p.Release(f)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(2)
	for i := 1; i <= 3; i++ {
		f := p.Insert(page.ID(i), page.New(page.TypeSlotted))
		p.Release(f)
	}
	// Page 1 was least recently used and clean: it must be gone.
	if f := p.Get(1); f != nil {
		t.Fatal("LRU page not evicted")
	}
	if f := p.Get(3); f == nil {
		t.Fatal("most recent page evicted")
	} else {
		p.Release(f)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestPinnedPagesSurviveEviction(t *testing.T) {
	p := New(1)
	f1 := p.Insert(1, page.New(page.TypeSlotted)) // stays pinned
	f2 := p.Insert(2, page.New(page.TypeSlotted))
	p.Release(f2)
	_ = f1
	if f := p.Get(1); f == nil {
		t.Fatal("pinned page evicted")
	} else {
		p.Release(f)
	}
}

func TestDirtyPagesNotEvicted(t *testing.T) {
	p := New(1)
	f1 := p.Insert(1, page.New(page.TypeSlotted))
	p.MarkDirty(f1)
	p.Release(f1)
	f2 := p.Insert(2, page.New(page.TypeSlotted))
	p.Release(f2)
	if f := p.Get(1); f == nil {
		t.Fatal("dirty page evicted")
	} else {
		p.Release(f)
	}
}

func TestDirtyFramesAndMarkAllClean(t *testing.T) {
	p := New(8)
	for i := 1; i <= 3; i++ {
		f := p.Insert(page.ID(i), page.New(page.TypeSlotted))
		if i != 2 {
			p.MarkDirty(f)
		}
		p.Release(f)
	}
	if n := len(p.DirtyFrames()); n != 2 {
		t.Fatalf("dirty frames = %d, want 2", n)
	}
	p.MarkAllClean()
	if n := len(p.DirtyFrames()); n != 0 {
		t.Fatalf("dirty frames after clean = %d", n)
	}
}

func TestDropMakesPoolCold(t *testing.T) {
	p := New(8)
	f := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(f)
	p.Drop()
	if p.Len() != 0 {
		t.Fatal("pool not empty after Drop")
	}
	if f := p.Get(1); f != nil {
		t.Fatal("hit after Drop")
	}
}

// TestPinOnlyPoolKeepsNoSnapshot: a NewPinOnly pool serves pins like
// any pool but publishes no committed snapshot.
func TestPinOnlyPoolKeepsNoSnapshot(t *testing.T) {
	p := NewPinOnly(4)
	img := page.New(page.TypeSlotted)
	img.Payload()[0] = 7
	f := p.Insert(1, img)
	if f.Snapshot() != nil {
		t.Fatal("a pin-only frame published a snapshot")
	}
	p.Release(f)
	if p.Snapshot(1) != nil {
		t.Fatal("Pool.Snapshot answered on a pin-only pool")
	}
	f = p.Get(1)
	if f == nil || f.Page.Payload()[0] != 7 {
		t.Fatal("a pin-only pool lost the page")
	}
	p.Release(f)
	if q := New(4); q.Insert(1, img).Snapshot() == nil {
		t.Fatal("a New pool published no snapshot")
	}
}

func TestForget(t *testing.T) {
	p := New(8)
	f := p.Insert(1, page.New(page.TypeSlotted))
	p.MarkDirty(f)
	p.Release(f)
	p.Forget(1)
	if f := p.Get(1); f != nil {
		t.Fatal("forgotten page still resident")
	}
	if n := len(p.DirtyFrames()); n != 0 {
		t.Fatal("forgotten page still dirty-listed")
	}
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p := New(2)
	f := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(f)
	p.Release(f)
}

func TestDoubleInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	p := New(2)
	p.Insert(1, page.New(page.TypeSlotted))
	p.Insert(1, page.New(page.TypeSlotted))
}

func TestRepinRemovesFromLRU(t *testing.T) {
	p := New(2)
	f := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(f)
	g := p.Get(1) // repin
	// Fill past capacity; page 1 is pinned so page 2 must be the victim.
	h2 := p.Insert(2, page.New(page.TypeSlotted))
	p.Release(h2)
	h3 := p.Insert(3, page.New(page.TypeSlotted))
	p.Release(h3)
	if got := p.Get(1); got == nil {
		t.Fatal("pinned page lost")
	} else {
		p.Release(got)
	}
	p.Release(g)
}

func TestDropCleanKeepsDirtyAndPinned(t *testing.T) {
	p := New(8)
	clean := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(clean)
	dirty := p.Insert(2, page.New(page.TypeSlotted))
	p.MarkDirty(dirty)
	p.Release(dirty)
	pinned := p.Insert(3, page.New(page.TypeSlotted))

	p.DropClean()

	if got := p.Get(1); got != nil {
		t.Fatal("clean unpinned frame survived DropClean")
	}
	if got := p.Get(2); got == nil {
		t.Fatal("dirty frame lost by DropClean (no-steal violated)")
	} else {
		p.Release(got)
	}
	if got := p.Get(3); got == nil {
		t.Fatal("pinned frame lost by DropClean")
	} else {
		p.Release(got)
	}
	p.Release(pinned)
}

// TestZombieFrameNotRelisted: a handle released after its page was
// dropped from the pool must not re-enter the eviction list — its
// eviction would delete whatever fresh frame now holds the same ID.
func TestZombieFrameNotRelisted(t *testing.T) {
	p := New(2)
	old := p.Insert(1, page.New(page.TypeSlotted))
	p.Drop() // page 1 forgotten while still pinned

	fresh := p.Insert(1, page.New(page.TypeSlotted))
	p.Release(fresh)
	p.Release(old) // zombie release: must NOT list old for eviction

	// Force evictions; if the zombie was listed, its eviction deletes
	// the fresh frame's map entry.
	a := p.Insert(2, page.New(page.TypeSlotted))
	p.Release(a)
	b := p.Insert(3, page.New(page.TypeSlotted))
	p.Release(b)

	// The fresh frame for page 1 was the LRU victim or survived — but
	// the pool must stay coherent: every Get returns the frame that is
	// actually in the map, and re-inserting after a miss must not panic.
	if f := p.Get(1); f != nil {
		p.Release(f)
	} else {
		f = p.Insert(1, page.New(page.TypeSlotted))
		p.Release(f)
	}
}

func TestResidentIDs(t *testing.T) {
	p := New(4)
	for id := 1; id <= 3; id++ {
		f := p.Insert(page.ID(id), page.New(page.TypeSlotted))
		p.Release(f)
	}
	ids := p.ResidentIDs()
	if len(ids) != 3 {
		t.Fatalf("resident = %v, want 3 pages", ids)
	}
	seen := map[page.ID]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("resident = %v", ids)
	}
}

// scanDirty is the dirty set by its old definition: every resident
// frame whose dirty flag is set, sorted by ID.
func scanDirty(p *Pool) []*Frame {
	var out []*Frame
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.Dirty() {
				out = append(out, f)
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b *Frame) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

func resident(p *Pool, id page.ID) bool {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.frames[id]
	return ok
}

// TestDirtySetMatchesFrameScan runs random sequences of every pool
// operation and checks after each step that the maintained dirty set
// is exactly what a scan of the frame table finds. Handles are kept
// across Drop and Forget, so zombie frames get dirtied and released
// too. A single-shard and a sharded pool are both covered.
func TestDirtySetMatchesFrameScan(t *testing.T) {
	for _, capacity := range []int{4, 8 * shardCount} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := New(capacity)
			maxID := 3 * capacity / 2
			var held []*Frame
			for step := 0; step < 2000; step++ {
				id := page.ID(1 + rng.Intn(maxID))
				var op string
				switch r := rng.Intn(100); {
				case r < 15:
					op = "Get"
					if f := p.Get(id); f != nil {
						held = append(held, f)
					}
				case r < 25:
					op = "Insert"
					if !resident(p, id) {
						held = append(held, p.Insert(id, page.New(page.TypeSlotted)))
					}
				case r < 35:
					op = "GetOrInsert"
					f, _ := p.GetOrInsert(id, page.New(page.TypeSlotted))
					held = append(held, f)
				case r < 60:
					op = "MarkDirty"
					if len(held) > 0 {
						f := held[rng.Intn(len(held))]
						p.MarkDirty(f)
						if rng.Intn(4) == 0 {
							p.MarkDirty(f) // double dirtying is one entry
						}
					}
				case r < 80:
					op = "Release"
					if len(held) > 0 {
						i := rng.Intn(len(held))
						p.Release(held[i])
						held = append(held[:i], held[i+1:]...)
					}
				case r < 87:
					op = "Forget"
					p.Forget(id)
				case r < 89:
					op = "Drop"
					p.Drop()
				case r < 93:
					op = "DropClean"
					before := scanDirty(p)
					p.DropClean()
					if got := scanDirty(p); !slices.Equal(got, before) {
						t.Fatalf("cap=%d seed=%d step=%d: DropClean changed the dirty frames", capacity, seed, step)
					}
				default:
					op = "MarkAllClean"
					p.MarkAllClean()
				}
				want := scanDirty(p)
				if got := p.DirtyFrames(); !slices.Equal(got, want) {
					t.Fatalf("cap=%d seed=%d step=%d after %s(%d): DirtyFrames = %v, frame scan = %v",
						capacity, seed, step, op, id, ids(got), ids(want))
				}
				if p.HasDirty() != (len(want) > 0) {
					t.Fatalf("cap=%d seed=%d step=%d after %s: HasDirty = %v with %d dirty",
						capacity, seed, step, op, p.HasDirty(), len(want))
				}
			}
		}
	}
}

func ids(fs []*Frame) []page.ID {
	out := make([]page.ID, len(fs))
	for i, f := range fs {
		out[i] = f.ID
	}
	return out
}

func TestDirtySetEdgeCases(t *testing.T) {
	p := New(2)
	a := p.Insert(1, page.New(page.TypeSlotted))
	p.MarkDirty(a)
	p.MarkDirty(a)
	if got := ids(p.DirtyFrames()); !slices.Equal(got, []page.ID{1}) {
		t.Fatalf("double MarkDirty: dirty = %v, want [1]", got)
	}
	p.Release(a)

	// A forgotten dirty frame leaves the set, and dirtying its stale
	// handle again does not bring it back.
	b := p.Insert(2, page.New(page.TypeSlotted))
	p.MarkDirty(b)
	p.Forget(2)
	p.MarkDirty(b)
	if got := ids(p.DirtyFrames()); !slices.Equal(got, []page.ID{1}) {
		t.Fatalf("after Forget: dirty = %v, want [1]", got)
	}
	p.Release(b)

	// DropClean keeps the dirty frame.
	p.DropClean()
	if got := ids(p.DirtyFrames()); !slices.Equal(got, []page.ID{1}) {
		t.Fatalf("after DropClean: dirty = %v, want [1]", got)
	}

	// A pool full of dirty frames grows; once they are clean, eviction
	// brings it back to capacity.
	for id := page.ID(3); id <= 4; id++ {
		f := p.Insert(id, page.New(page.TypeSlotted))
		p.MarkDirty(f)
		p.Release(f)
	}
	if p.Len() != 3 || p.Stats().Evictions != 0 {
		t.Fatalf("dirty pool: len %d, evictions %d; want 3, 0", p.Len(), p.Stats().Evictions)
	}
	p.MarkAllClean()
	if p.HasDirty() || len(p.DirtyFrames()) != 0 {
		t.Fatal("dirty frames left after MarkAllClean")
	}
	for id := page.ID(5); id <= 6; id++ {
		p.Release(p.Insert(id, page.New(page.TypeSlotted)))
	}
	if p.Len() != 2 || p.Stats().Evictions == 0 {
		t.Fatalf("after MarkAllClean: len %d, evictions %d; want 2 and some", p.Len(), p.Stats().Evictions)
	}

	p.MarkDirty(p.Get(5))
	p.Drop()
	if p.HasDirty() || len(p.DirtyFrames()) != 0 {
		t.Fatal("dirty frames left after Drop")
	}
}

// TestConcurrentPinWhileDirtying races readers pinning, snapshotting
// and releasing frames against the single writer dirtying and cleaning
// them. Run under -race. The writer's own record of what it dirtied
// since its last clean must match DirtyFrames throughout: readers
// neither add nor remove dirty frames.
func TestConcurrentPinWhileDirtying(t *testing.T) {
	const pages = 64
	p := New(8 * shardCount)
	for id := page.ID(1); id <= pages; id++ {
		p.Release(p.Insert(id, page.New(page.TypeSlotted)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := page.ID(1 + rng.Intn(2*pages))
				if f := p.Get(id); f != nil {
					_ = f.Snapshot()
					p.Release(f)
				} else if rng.Intn(2) == 0 {
					f, _ := p.GetOrInsert(id, page.New(page.TypeSlotted))
					p.Release(f)
				}
				_ = p.Snapshot(id)
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(99))
	mine := map[page.ID]bool{}
	for i := 0; i < 5000; i++ {
		id := page.ID(1 + rng.Intn(pages))
		f, _ := p.GetOrInsert(id, page.New(page.TypeSlotted))
		p.MarkDirty(f)
		p.Release(f)
		mine[id] = true
		if rng.Intn(16) == 0 {
			got := ids(p.DirtyFrames())
			if len(got) != len(mine) {
				t.Fatalf("dirty set %v, writer dirtied %d pages", got, len(mine))
			}
			for _, id := range got {
				if !mine[id] {
					t.Fatalf("page %d dirty but never dirtied", id)
				}
			}
			p.MarkAllClean()
			clear(mine)
		}
	}
}

package buffer

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hypermodel/internal/storage/page"
)

// modelFrame is a frame as the reference LRU sees it.
type modelFrame struct {
	id    page.ID
	pins  int
	dirty bool
}

// modelShard restates a shard with slices: the evictable frames in
// release order (index 0 the most recent) and the dirty list in
// dirtying order, swap-removed by Forget like the pool's.
type modelShard struct {
	cap    int
	frames map[page.ID]*modelFrame
	lru    []*modelFrame
	dirty  []*modelFrame
}

// lruModel is the pool's replacement policy over plain slices, the
// reference the intrusive ring must agree with step for step.
type lruModel struct {
	shards    []modelShard
	evictions uint64
}

func newModel(capacity int) *lruModel {
	n := 1
	if capacity >= 8*shardCount {
		n = shardCount
	}
	m := &lruModel{shards: make([]modelShard, n)}
	for i := range m.shards {
		c := capacity / n
		if i < capacity%n {
			c++
		}
		m.shards[i] = modelShard{cap: c, frames: map[page.ID]*modelFrame{}}
	}
	return m
}

func (m *lruModel) shard(id page.ID) *modelShard {
	return &m.shards[int(id)%len(m.shards)]
}

func (sh *modelShard) unlist(f *modelFrame) {
	if i := slices.Index(sh.lru, f); i >= 0 {
		sh.lru = slices.Delete(sh.lru, i, i+1)
	}
}

func (sh *modelShard) relist(f *modelFrame) {
	if f.pins == 0 && !f.dirty && sh.frames[f.id] == f && !slices.Contains(sh.lru, f) {
		sh.lru = slices.Insert(sh.lru, 0, f)
	}
}

func (m *lruModel) get(id page.ID) *modelFrame {
	sh := m.shard(id)
	f := sh.frames[id]
	if f != nil {
		sh.unlist(f)
		f.pins++
	}
	return f
}

func (m *lruModel) insert(id page.ID) *modelFrame {
	sh := m.shard(id)
	for len(sh.frames) >= sh.cap && len(sh.lru) > 0 {
		victim := sh.lru[len(sh.lru)-1]
		sh.lru = sh.lru[:len(sh.lru)-1]
		delete(sh.frames, victim.id)
		m.evictions++
	}
	f := &modelFrame{id: id, pins: 1}
	sh.frames[id] = f
	return f
}

func (m *lruModel) release(f *modelFrame) {
	f.pins--
	m.shard(f.id).relist(f)
}

func (m *lruModel) markDirty(f *modelFrame) {
	if f.dirty {
		return
	}
	sh := m.shard(f.id)
	f.dirty = true
	sh.unlist(f)
	if sh.frames[f.id] == f {
		sh.dirty = append(sh.dirty, f)
	}
}

func (m *lruModel) markAllClean() {
	for i := range m.shards {
		sh := &m.shards[i]
		for _, f := range sh.dirty {
			f.dirty = false
			sh.relist(f)
		}
		sh.dirty = nil
	}
}

func (m *lruModel) forget(id page.ID) {
	sh := m.shard(id)
	f := sh.frames[id]
	if f == nil {
		return
	}
	sh.unlist(f)
	if i := slices.Index(sh.dirty, f); i >= 0 {
		last := len(sh.dirty) - 1
		sh.dirty[i] = sh.dirty[last]
		sh.dirty = sh.dirty[:last]
	}
	delete(sh.frames, id)
}

func (m *lruModel) drop() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.frames = map[page.ID]*modelFrame{}
		sh.lru, sh.dirty = nil, nil
	}
}

func (m *lruModel) dropClean() {
	for i := range m.shards {
		sh := &m.shards[i]
		for id, f := range sh.frames {
			if !f.dirty && f.pins == 0 {
				sh.unlist(f)
				delete(sh.frames, id)
			}
		}
	}
}

func (m *lruModel) residentIDs() []page.ID {
	var out []page.ID
	for i := range m.shards {
		for id := range m.shards[i].frames {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// checkRing verifies every shard's eviction ring: the links agree in
// both directions, and the listed frames are exactly the resident,
// clean, unpinned ones. It must run with no other goroutine using p.
func checkRing(p *Pool) error {
	for i := range p.shards {
		sh := &p.shards[i]
		listed := 0
		for f := sh.lru.next; f != &sh.lru; f = f.next {
			if f.next == nil || f.next.prev != f {
				return fmt.Errorf("shard %d: broken link after page %d", i, f.ID)
			}
			if sh.frames[f.ID] != f || f.pins.Load() != 0 || f.dirty.Load() {
				return fmt.Errorf("shard %d: page %d listed but not evictable", i, f.ID)
			}
			listed++
		}
		want := 0
		for _, f := range sh.frames {
			if f.pins.Load() == 0 && !f.dirty.Load() {
				want++
			}
		}
		if listed != want {
			return fmt.Errorf("shard %d: %d frames listed, %d evictable", i, listed, want)
		}
	}
	return nil
}

// TestLRUMatchesSliceModel runs random sequences of every pool
// operation under capacity pressure against lruModel and checks after
// each step that the resident set and the eviction count are the
// model's. Releases and dirtying go through the frames' handles half of
// the time. Handles are kept across Drop and Forget, so zombie frames
// are dirtied and released too. A single-shard and a 16-shard pool are
// both covered.
func TestLRUMatchesSliceModel(t *testing.T) {
	type held struct {
		f *Frame
		m *modelFrame
	}
	for _, capacity := range []int{6, 8 * shardCount} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, m := New(capacity), newModel(capacity)
			if len(p.shards) != len(m.shards) {
				t.Fatalf("cap=%d: pool has %d shards, model %d", capacity, len(p.shards), len(m.shards))
			}
			maxID := 2 * capacity
			var pins []held
			for step := 0; step < 3000; step++ {
				id := page.ID(1 + rng.Intn(maxID))
				var op string
				switch r := rng.Intn(100); {
				case r < 20:
					op = "Get"
					f, mf := p.Get(id), m.get(id)
					if (f == nil) != (mf == nil) {
						t.Fatalf("cap=%d seed=%d step=%d: Get(%d) hit %v, model %v", capacity, seed, step, id, f != nil, mf != nil)
					}
					if f != nil {
						pins = append(pins, held{f, mf})
					}
				case r < 30:
					op = "Insert"
					if m.shard(id).frames[id] == nil {
						pins = append(pins, held{p.Insert(id, page.New(page.TypeSlotted)), m.insert(id)})
					}
				case r < 40:
					op = "GetOrInsert"
					f, installed := p.GetOrInsert(id, page.New(page.TypeSlotted))
					mf := m.get(id)
					if installed != (mf == nil) {
						t.Fatalf("cap=%d seed=%d step=%d: GetOrInsert(%d) installed %v, model resident %v", capacity, seed, step, id, installed, mf != nil)
					}
					if mf == nil {
						mf = m.insert(id)
					}
					pins = append(pins, held{f, mf})
				case r < 50:
					op = "MarkDirty"
					if len(pins) > 0 {
						h := pins[rng.Intn(len(pins))]
						if rng.Intn(2) == 0 {
							HandleOf(h.f).MarkDirty()
						} else {
							p.MarkDirty(h.f)
						}
						m.markDirty(h.m)
					}
				case r < 80:
					op = "Release"
					if len(pins) > 0 {
						i := rng.Intn(len(pins))
						if rng.Intn(2) == 0 {
							HandleOf(pins[i].f).Release()
						} else {
							p.Release(pins[i].f)
						}
						m.release(pins[i].m)
						pins = slices.Delete(pins, i, i+1)
					}
				case r < 87:
					op = "MarkAllClean"
					p.MarkAllClean()
					m.markAllClean()
				case r < 93:
					op = "Forget"
					p.Forget(id)
					m.forget(id)
				case r < 95:
					op = "Drop"
					p.Drop()
					m.drop()
				default:
					op = "DropClean"
					p.DropClean()
					m.dropClean()
				}
				got := p.ResidentIDs()
				slices.Sort(got)
				if want := m.residentIDs(); !slices.Equal(got, want) {
					t.Fatalf("cap=%d seed=%d step=%d after %s(%d): resident %v, model %v", capacity, seed, step, op, id, got, want)
				}
				if got, want := p.Stats().Evictions, m.evictions; got != want {
					t.Fatalf("cap=%d seed=%d step=%d after %s(%d): %d evictions, model %d", capacity, seed, step, op, id, got, want)
				}
				if err := checkRing(p); err != nil {
					t.Fatalf("cap=%d seed=%d step=%d after %s(%d): %v", capacity, seed, step, op, id, err)
				}
			}
		}
	}
}

// TestHandleIsPerFrame: every pin of a frame hands out the same handle,
// and a page's fresh frame after eviction gets a fresh one.
func TestHandleIsPerFrame(t *testing.T) {
	p := New(1)
	f := p.Insert(1, page.New(page.TypeSlotted))
	h := HandleOf(f)
	if h.Page() != f.Page {
		t.Fatal("handle does not show its frame's page")
	}
	h.Release()
	g := p.Get(1)
	if HandleOf(g) != h {
		t.Fatal("a second pin of the frame got another handle")
	}
	HandleOf(g).Release()
	p.Release(p.Insert(2, page.New(page.TypeSlotted))) // evicts page 1
	f = p.Insert(1, page.New(page.TypeSlotted))
	if HandleOf(f) == h {
		t.Fatal("a fresh frame reused the evicted frame's handle")
	}
	HandleOf(f).Release()
}

// TestConcurrentPinRelease races readers pinning and releasing frames
// through their handles, on a pool too small for the pages they touch,
// against a goroutine forgetting pages and dropping clean frames. Run
// under -race. Afterwards every ring must be intact and the pool back
// within its capacity.
func TestConcurrentPinRelease(t *testing.T) {
	for _, capacity := range []int{8, 8 * shardCount} {
		p := New(capacity)
		pages := 3 * capacity
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 5000; i++ {
					id := page.ID(1 + rng.Intn(pages))
					f := p.Get(id)
					if f == nil {
						f, _ = p.GetOrInsert(id, page.New(page.TypeSlotted))
					}
					h := HandleOf(f)
					if h.Page() == nil {
						t.Error("pinned frame without a page")
					}
					h.Release()
				}
			}(int64(r))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 500; i++ {
				if rng.Intn(8) == 0 {
					p.DropClean()
				} else {
					p.Forget(page.ID(1 + rng.Intn(pages)))
				}
			}
		}()
		wg.Wait()
		if err := checkRing(p); err != nil {
			t.Fatalf("cap=%d: %v", capacity, err)
		}
		if p.Len() > capacity {
			t.Fatalf("cap=%d: %d pages resident with nothing pinned or dirty", capacity, p.Len())
		}
	}
}

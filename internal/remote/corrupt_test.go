package remote

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"

	"hypermodel/internal/btree"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/pager"
	"hypermodel/internal/storage/store"
	"hypermodel/internal/storage/vfs"
)

// startMemServer spins a page server over a store on an in-memory FS,
// so tests can corrupt the server's "disk" underneath it.
func startMemServer(t *testing.T) (string, *Server, *store.Store, *vfs.MemFS) {
	t.Helper()
	fs := vfs.NewMem()
	st, err := store.Open("db", &store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return addr.String(), srv, st, fs
}

// seedPages allocates n pages server-side (payload = 100+i), makes
// them durable, and drops the server's cache so fetches hit the disk
// images.
func seedPages(t *testing.T, st *store.Store, n int) []page.ID {
	t.Helper()
	var ids []page.ID
	for i := 0; i < n; i++ {
		id, h, err := st.Alloc(page.TypeSlotted)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(h.Page().Payload(), uint64(100+i))
		h.MarkDirty()
		h.Release()
		ids = append(ids, id)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.DropCache(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// corruptStorePage flips bytes inside one page of the server's disk
// image (mirrors the store package's test helper).
func corruptStorePage(t *testing.T, fs *vfs.MemFS, id page.ID, off int64, n int) {
	t.Helper()
	data, err := fs.ReadFile("db")
	if err != nil {
		t.Fatal(err)
	}
	base := int64(id)*page.Size + off
	for i := int64(0); i < int64(n); i++ {
		data[base+i] ^= 0xA5
	}
	if err := fs.WriteFile("db", data); err != nil {
		t.Fatal(err)
	}
}

// TestServerDiskCorruptionSurfacesTyped: a page damaged on the
// server's disk comes back over the wire as the same typed
// *pager.ErrCorruptPage a local store raises — right page, right
// sequence — and the connection survives to serve the undamaged
// neighbor. The remote tier is the fourth read path of the corruption
// taxonomy.
func TestServerDiskCorruptionSurfacesTyped(t *testing.T) {
	addr, srv, st, fs := startMemServer(t)
	ids := seedPages(t, st, 3)
	corruptStorePage(t, fs, ids[1], 300, 16)

	c := dial(t, addr)
	_, err := c.Get(ids[1])
	var ce *pager.ErrCorruptPage
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt page surfaced as %T (%v), want *pager.ErrCorruptPage", err, err)
	}
	if ce.ID != ids[1] {
		t.Fatalf("taxonomy names page %d, damage is on %d", ce.ID, ids[1])
	}
	if ce.Seq != st.Seq() {
		t.Fatalf("taxonomy seq %d, want committed seq %d", ce.Seq, st.Seq())
	}
	if srv.CorruptServed() == 0 {
		t.Fatal("server did not count the corrupt answer")
	}

	// The connection is still healthy: same session reads the neighbor.
	h, err := c.Get(ids[0])
	if err != nil {
		t.Fatalf("undamaged neighbor unreadable after corrupt answer: %v", err)
	}
	if got := binary.LittleEndian.Uint64(h.Page().Payload()); got != 100 {
		t.Fatalf("neighbor holds %d, want 100", got)
	}
	h.Release()
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after corrupt answer: %v", err)
	}
	if st := c.RetryStats(); st.Reconnects != 0 {
		t.Fatalf("client reconnected %d times over a definite answer", st.Reconnects)
	}

	// And the operator story: Scrub on the server store pinpoints it.
	rep := st.Scrub()
	if len(rep.Damaged) != 1 || rep.Damaged[0].ID != ids[1] {
		t.Fatalf("scrub did not pinpoint page %d:\n%s", ids[1], rep)
	}
}

// TestBatchFetchDegradesPerPage: one corrupt page inside an opGetPages
// batch fails only itself. The server refuses the whole batch frame
// (typed), the client falls back to per-page fetches for that call —
// installing every healthy page, surfacing the typed error for the
// damaged one — and batching stays enabled for later calls.
func TestBatchFetchDegradesPerPage(t *testing.T) {
	addr, _, st, fs := startMemServer(t)
	ids := seedPages(t, st, 4)
	corruptStorePage(t, fs, ids[3], 200, 8)

	c := dial(t, addr)
	err := c.Prefetch(ids)
	var ce *pager.ErrCorruptPage
	if !errors.As(err, &ce) {
		t.Fatalf("prefetch over damage returned %T (%v), want *pager.ErrCorruptPage", err, err)
	}
	if ce.ID != ids[3] {
		t.Fatalf("taxonomy names page %d, damage is on %d", ce.ID, ids[3])
	}
	// The healthy pages made it into the cache on the per-page fallback.
	if missing := c.missingOf(ids[:3]); len(missing) != 0 {
		t.Fatalf("healthy pages not installed: %v still missing", missing)
	}
	if !c.batchOK.Load() {
		t.Fatal("corruption permanently disabled batching")
	}
	rs := c.RetryStats()
	if rs.Downgrades == 0 {
		t.Fatal("per-page fallback not counted")
	}

	// Later batches still fly: drop and prefetch only healthy pages.
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	_, batchedBefore := c.FrameStats()
	if err := c.Prefetch(ids[:3]); err != nil {
		t.Fatalf("healthy prefetch after degradation: %v", err)
	}
	if _, batched := c.FrameStats(); batched == batchedBefore {
		t.Fatal("client stopped batching after a corrupt batch")
	}
}

// TestTransitCorruptionRefetches: bytes damaged between the server's
// memory and the client's (intact framing, corrupt payload) are caught
// by receive-side validation and fetched again — the page never enters
// the cache bad, and the retry is invisible to the caller.
func TestTransitCorruptionRefetches(t *testing.T) {
	srv := newBackedServer(t)
	corrupted := false
	addr := scriptedServer(t, srv, func(frame int, req []byte) scriptStep {
		if !corrupted && len(req) > 0 && req[0] == opGetPage {
			corrupted = true
			return scriptStep{act: actCorrupt}
		}
		return scriptStep{}
	})

	c, err := Dial(addr, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, h, err := c.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(h.Page().Payload(), 777)
	h.MarkDirty()
	h.Release()
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}

	h, err = c.Get(id) // first fetch arrives corrupted, refetch succeeds
	if err != nil {
		t.Fatalf("Get through transit corruption: %v", err)
	}
	defer h.Release()
	if got := binary.LittleEndian.Uint64(h.Page().Payload()); got != 777 {
		t.Fatalf("page holds %d after refetch, want 777", got)
	}
	rs := c.RetryStats()
	if rs.CorruptRefetches != 1 {
		t.Fatalf("CorruptRefetches = %d, want 1", rs.CorruptRefetches)
	}
}

// seedTree builds a two-level B-tree server-side in root slot 0
// (8-byte keys, value = low key byte), makes it durable, and drops the
// server's cache. It returns the root and the leaf that holds key(k).
func seedTree(t *testing.T, st *store.Store, n int, k uint64) (root, leaf page.ID) {
	t.Helper()
	tr, err := btree.Open(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Put(btree.U64Key(uint64(i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	root = st.Root(0)
	h, err := st.Get(root)
	if err != nil {
		t.Fatal(err)
	}
	leaf, ok := btree.ChildFor(h.Page(), btree.U64Key(k))
	h.Release()
	if !ok {
		t.Fatalf("tree of %d keys is a single leaf", n)
	}
	if err := st.DropCache(); err != nil {
		t.Fatal(err)
	}
	return root, leaf
}

// TestPathCorruptRootSurfacesTyped: a path fetch whose requested page
// is damaged on the server's disk fails with the same typed error a
// plain Get reports.
func TestPathCorruptRootSurfacesTyped(t *testing.T) {
	addr, _, st, fs := startMemServer(t)
	root, _ := seedTree(t, st, 1000, 10)
	corruptStorePage(t, fs, root, 300, 16)

	c := dial(t, addr)
	tr, err := btree.Open(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = tr.Get(btree.U64Key(10))
	var ce *pager.ErrCorruptPage
	if !errors.As(err, &ce) || ce.ID != root {
		t.Fatalf("descent over a corrupt root returned %v, want *pager.ErrCorruptPage for page %d", err, root)
	}
	if !c.pathOK.Load() {
		t.Fatal("a corrupt page switched path fetches off")
	}
}

// TestPathCorruptLeafEndsPath: a page damaged on the server's disk
// below the requested one ends the shipped path there. The descent
// still gets the root, then reports the damaged leaf exactly as a
// page-at-a-time descent would, and leaves on healthy pages answer.
func TestPathCorruptLeafEndsPath(t *testing.T) {
	addr, _, st, fs := startMemServer(t)
	root, leaf := seedTree(t, st, 1000, 10)
	corruptStorePage(t, fs, leaf, 300, 16)

	c := dial(t, addr)
	tr, err := btree.Open(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = tr.Get(btree.U64Key(10))
	var ce *pager.ErrCorruptPage
	if !errors.As(err, &ce) || ce.ID != leaf {
		t.Fatalf("descent over a corrupt leaf returned %v, want *pager.ErrCorruptPage for page %d", err, leaf)
	}
	if missing := c.missingOf([]page.ID{root}); len(missing) != 0 {
		t.Fatal("the healthy root did not arrive with the path")
	}
	v, ok, err := tr.Get(btree.U64Key(999))
	if err != nil || !ok || v[0] != byte(999%256) {
		t.Fatalf("healthy leaf after a corrupt one: %v %v %v", v, ok, err)
	}
}

// TestPathTransitCorruption: transit damage to the requested page is
// refetched within the retry budget, like Get's; damage to a page
// below it ends the installed path, and the descent fetches that page
// itself. Either way the answer is right and nothing damaged is
// cached.
func TestPathTransitCorruption(t *testing.T) {
	for _, tc := range []struct {
		name      string
		keys      int // 100 keys fit one leaf; 1000 make a root and leaves
		refetches uint64
	}{
		{"requested", 100, 1},
		{"below", 1000, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newBackedServer(t)
			var armed atomic.Bool
			addr := scriptedServer(t, srv, func(frame int, req []byte) scriptStep {
				// actCorrupt flips the last byte: the deepest page shipped.
				if len(req) > 0 && req[0] == opGetPath && armed.CompareAndSwap(true, false) {
					return scriptStep{act: actCorrupt}
				}
				return scriptStep{}
			})
			c, err := Dial(addr, fastRetry())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			buildTree(t, c, tc.keys, 8)
			tr, err := btree.Open(c, 0)
			if err != nil {
				t.Fatal(err)
			}
			armed.Store(true)
			v, ok, err := tr.Get(btree.U64Key(42))
			if err != nil || !ok || v[0] != 42 {
				t.Fatalf("descent through transit corruption: %v %v %v", v, ok, err)
			}
			if armed.Load() {
				t.Fatal("the descent sent no opGetPath")
			}
			if got := c.RetryStats().CorruptRefetches; got != tc.refetches {
				t.Fatalf("CorruptRefetches = %d, want %d", got, tc.refetches)
			}
		})
	}
}

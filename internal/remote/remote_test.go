package remote

import (
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"testing"

	"hypermodel/internal/backend/backendtest"
	"hypermodel/internal/backend/oodb"
	"hypermodel/internal/btree"
	"hypermodel/internal/hyper"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// startServer spins a page server over a fresh store and returns its
// address.
func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "server.db"), nil)
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
	return addr.String(), srv
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPingAndRoots(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < store.NumRoots; i++ {
		if got := c.Root(i); got != page.Invalid {
			t.Fatalf("fresh root %d = %d", i, got)
		}
	}
}

func TestAllocWriteCommitFetch(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	id, h, err := c.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Page().Payload(), "over the wire")
	h.MarkDirty()
	h.Release()
	c.SetRoot(2, id)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	// A second client sees the committed page and root.
	c2 := dial(t, addr)
	if got := c2.Root(2); got != id {
		t.Fatalf("root = %d, want %d", got, id)
	}
	h2, err := c2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if string(h2.Page().Payload()[:13]) != "over the wire" {
		t.Fatal("page contents lost in transit")
	}
}

func TestColdWarmFetchCounts(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	id, h, err := c.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty()
	h.Release()
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// Warm: cached locally, no fetch.
	_, _, f0 := c.CacheStats()
	h, err = c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	_, _, f1 := c.CacheStats()
	if f1 != f0 {
		t.Fatalf("warm access fetched from server (%d -> %d)", f0, f1)
	}
	// Cold: DropCache forces a server round trip.
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	h, err = c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	_, _, f2 := c.CacheStats()
	if f2 != f1+1 {
		t.Fatalf("cold access did not fetch (%d -> %d)", f1, f2)
	}
}

func TestOptimisticConflict(t *testing.T) {
	addr, srv := startServer(t)
	writer := dial(t, addr)

	// Set up one committed page.
	id, h, err := writer.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.Page().Payload()[0] = 1
	h.MarkDirty()
	h.Release()
	writer.SetRoot(0, id)
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// Two clients read the same page, both try to update it.
	a := dial(t, addr)
	bc := dial(t, addr)
	update := func(c *Client, v byte) error {
		h, err := c.Get(id)
		if err != nil {
			return err
		}
		h.Page().Payload()[0] = v
		h.MarkDirty()
		h.Release()
		return c.Commit()
	}
	// Both must Get before either commits, to create the race.
	ha, err := a.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := bc.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	ha.Page().Payload()[0] = 10
	ha.MarkDirty()
	ha.Release()
	hb.Page().Payload()[0] = 20
	hb.MarkDirty()
	hb.Release()

	if err := a.Commit(); err != nil {
		t.Fatalf("first committer must win: %v", err)
	}
	err = bc.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer got %v, want ErrConflict", err)
	}
	// After the conflict the client retries with fresh caches and
	// succeeds.
	if err := update(bc, 20); err != nil {
		t.Fatalf("retry after conflict: %v", err)
	}
	_, aborts, _ := srv.Stats()
	if aborts != 1 {
		t.Fatalf("server counted %d aborts, want 1", aborts)
	}
	// Final state is the retry's value.
	c := dial(t, addr)
	hc, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Release()
	if hc.Page().Payload()[0] != 20 {
		t.Fatalf("final value = %d, want 20", hc.Page().Payload()[0])
	}
}

func TestNonConflictingClientsBothCommit(t *testing.T) {
	// R9: two users updating *different* nodes in the same structure
	// must both succeed.
	addr, srv := startServer(t)
	setup := dial(t, addr)
	var ids [2]page.ID
	for i := range ids {
		id, h, err := setup.Alloc(page.TypeSlotted)
		if err != nil {
			t.Fatal(err)
		}
		h.MarkDirty()
		h.Release()
		ids[i] = id
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	a := dial(t, addr)
	b := dial(t, addr)
	for i, c := range []*Client{a, b} {
		h, err := c.Get(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		h.Page().Payload()[0] = byte(i + 1)
		h.MarkDirty()
		h.Release()
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("disjoint update conflicted: %v", err)
	}
	commits, aborts, _ := srv.Stats()
	if aborts != 0 || commits < 3 {
		t.Fatalf("commits=%d aborts=%d", commits, aborts)
	}
}

// TestBTreeOverRemote runs the B+tree directly against the remote
// space: structural layers must be oblivious to the transport.
func TestBTreeOverRemote(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	tr, err := btree.Open(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Put(btree.U64Key(uint64(i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	tr2, err := btree.Open(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i += 61 {
		v, ok, err := tr2.Get(btree.U64Key(uint64(i)))
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("key %d over remote: %v %v %v", i, v, ok, err)
		}
	}
}

// TestConformanceOverRemote runs the full backend conformance suite on
// the oodb mapping over the page-server client — the complete
// workstation/server stack.
func TestConformanceOverRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var addr string
	backendtest.Run(t, backendtest.Config{
		Open: func(t *testing.T) hyper.Backend {
			addr, _ = startServer(t)
			c, err := Dial(addr, ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			db, err := oodb.New(c, oodb.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
		Reopen: func(t *testing.T, b hyper.Backend) hyper.Backend {
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			c, err := Dial(addr, ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			db, err := oodb.New(c, oodb.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
	})
}

func TestServerRejectsGarbage(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(id uint64, body ...byte) {
		t.Helper()
		frame := binary.LittleEndian.AppendUint64(nil, id)
		if err := writeFrame(conn, append(frame, body...)); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() (id uint64, status byte) {
		t.Helper()
		resp, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp) < muxHeaderLen+1 {
			t.Fatalf("runt response (%d bytes)", len(resp))
		}
		return binary.LittleEndian.Uint64(resp), resp[muxHeaderLen]
	}

	send(1, 200) // unknown opcode
	if id, status := recv(); id != 1 || status != statusBadRequest {
		t.Fatalf("unknown opcode got id %d status %d, want 1 / statusBadRequest", id, status)
	}
	// A frame too short for a request ID is answered on the
	// connection-level ID zero rather than killing the connection.
	if err := writeFrame(conn, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if id, status := recv(); id != connReqID || status != statusBadRequest {
		t.Fatalf("runt request got id %d status %d, want 0 / statusBadRequest", id, status)
	}
	// The connection stays usable.
	send(2, opPing)
	if id, status := recv(); id != 2 || status != statusOK {
		t.Fatalf("ping after error: id %d status %d", id, status)
	}
}

func TestCommitCodecRoundTrip(t *testing.T) {
	img := make([]byte, page.Size)
	for i := range img {
		img[i] = byte(i)
	}
	req := &commitReq{
		reads:  []readEntry{{1, 5}, {2, 0}},
		writes: []writeEntry{{3, img}},
		roots:  []rootEntry{{4, 99}},
		frees:  []page.ID{7, 8},
	}
	enc := encodeCommit(req)
	got, err := decodeCommit(enc[1:]) // skip opcode
	if err != nil {
		t.Fatal(err)
	}
	if len(got.reads) != 2 || got.reads[0] != req.reads[0] {
		t.Fatalf("reads = %+v", got.reads)
	}
	if len(got.writes) != 1 || got.writes[0].id != 3 || got.writes[0].image[100] != 100 {
		t.Fatal("writes mismatch")
	}
	if len(got.roots) != 1 || got.roots[0] != req.roots[0] {
		t.Fatal("roots mismatch")
	}
	if len(got.frees) != 2 || got.frees[1] != 8 {
		t.Fatal("frees mismatch")
	}
	if _, err := decodeCommit(enc[1 : len(enc)-3]); err == nil {
		t.Fatal("truncated commit accepted")
	}
}

// TestGetHitAllocs pins the client's warm read path: once a page is in
// the workstation cache, a Get (which also records the read set) and
// its Release allocate nothing.
func TestGetHitAllocs(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	id, h, err := c.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty()
	h.Release()
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		h, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	})
	if got != 0 {
		t.Fatalf("a warm Get+Release allocates %v times, want 0", got)
	}
	if hits, _, _ := c.CacheStats(); hits < 200 {
		t.Fatalf("%d cache hits over 200 measured Gets", hits)
	}
}

// TestClientFramesKeepNoSnapshot: every read of the client's cache
// pins, so its pool copies no committed snapshot on insert.
func TestClientFramesKeepNoSnapshot(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	id, h, err := c.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty()
	h.Release()
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	if h, err = c.Get(id); err != nil {
		t.Fatal(err)
	}
	h.Release()
	f := c.pool.Get(id)
	if f == nil {
		t.Fatal("fetched page not cached")
	}
	defer c.pool.Release(f)
	if f.Snapshot() != nil {
		t.Fatal("a client frame carries a committed snapshot")
	}
}

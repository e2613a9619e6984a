package remote

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"hypermodel/internal/backend/oodb"
	"hypermodel/internal/btree"
	"hypermodel/internal/hyper"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// serveGenerated generates a HyperModel database of the given level
// locally and serves its file from a standalone page server.
func serveGenerated(t *testing.T, level int) (string, hyper.Layout) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gen.db")
	local, err := oodb.Open(path, oodb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lay, _, err := hyper.Generate(local, hyper.GenConfig{LeafLevel: level, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path, nil)
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
	return addr.String(), lay
}

// sessions lists a space's per-server sessions with the shard each
// serves: the client itself, or every shard of a cluster.
func sessions(sp oodb.Space) map[int]*Client {
	switch s := sp.(type) {
	case *Client:
		return map[int]*Client{0: s}
	case *ClusterClient:
		out := make(map[int]*Client)
		for i, c := range s.snapshotSubs() {
			out[i] = c
		}
		return out
	}
	panic(fmt.Sprintf("no sessions in %T", sp))
}

// wireCounts sums request frames and fetched pages over a space's
// sessions.
func wireCounts(sp oodb.Space) (frames, pages uint64) {
	for _, c := range sessions(sp) {
		f, _ := c.FrameStats()
		_, _, p := c.CacheStats()
		frames += f
		pages += p
	}
	return frames, pages
}

// setPaths turns opGetPath on or off in every session: off is the
// one-page-per-round-trip descent the path fetch replaces.
func setPaths(sp oodb.Space, on bool) {
	for _, c := range sessions(sp) {
		c.pathOK.Store(on)
	}
}

// coldShape describes the pages a cold operation left resident: the
// B-trees it entered (resident root-slot pages), the B-tree pages it
// read, and the other pages (data pages) it read.
type coldShape struct {
	trees, treePages, other int
	heights                 []int
}

// shapeOf reads the resident set of every session after a cold
// operation. Each entered tree's height is measured by walking its
// leftmost path with ReadPage and btree.ChildFor; a cold descent of a
// balanced tree reads exactly that many pages.
func shapeOf(t *testing.T, sp oodb.Space) coldShape {
	t.Helper()
	roots := make(map[page.ID]bool)
	for slot := 0; slot < store.NumRoots; slot++ {
		roots[sp.Root(slot)] = true
	}
	type resident struct {
		id  page.ID
		typ page.Type
	}
	var pages []resident
	for sh, c := range sessions(sp) {
		for _, local := range c.pool.ResidentIDs() {
			f := c.pool.Get(local)
			pages = append(pages, resident{globalID(sh, local), f.Page.Type()})
			c.pool.Release(f)
		}
	}
	var s coldShape
	for _, p := range pages {
		switch {
		case p.typ != page.TypeBTree:
			s.other++
		case roots[p.id]:
			s.trees++
			s.treePages++
			s.heights = append(s.heights, treeHeight(t, sp, p.id))
		default:
			s.treePages++
		}
	}
	return s
}

// treeHeight counts the pages on the leftmost root-to-leaf path.
func treeHeight(t *testing.T, sp oodb.Space, root page.ID) int {
	t.Helper()
	reader := sp.(interface {
		ReadPage(page.ID) (uint64, *page.Page, error)
	})
	h := 0
	for id := root; ; h++ {
		_, p, err := reader.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		child, ok := btree.ChildFor(p, nil)
		if !ok {
			return h + 1
		}
		id = child
	}
}

// measureCold runs op on a dropped cache and reports its request
// frames and fetched pages.
func measureCold(t *testing.T, db *oodb.DB, op func() error) (frames, pages uint64) {
	t.Helper()
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	f0, p0 := wireCounts(db.Store())
	if err := op(); err != nil {
		t.Fatal(err)
	}
	f1, p1 := wireCounts(db.Store())
	return f1 - f0, p1 - p0
}

// checkColdLookups pins the round trips of a cold O1 and O2. A cold
// descent of a tree of height h reads h pages; with path fetches they
// arrive in one frame. So a cold op takes one frame per tree it enters
// plus one per data page, and fetches exactly the pages the
// page-at-a-time descent fetches: the sum of the heights plus the data
// pages. O1 enters the uniqueId index and the object table, O2 only
// the object table.
func checkColdLookups(t *testing.T, db *oodb.DB, lay hyper.Layout) {
	t.Helper()
	sp := db.Store()
	ids := []hyper.NodeID{lay.FirstID(), lay.FirstID() + hyper.NodeID(lay.Total()/2), lay.LastID()}
	for _, id := range ids {
		oid, err := db.OIDOf(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Hundred(id)
		if err != nil {
			t.Fatal(err)
		}
		ops := []struct {
			name  string
			trees int
			run   func() (int32, error)
		}{
			{"O1", 2, func() (int32, error) { return db.Hundred(id) }},
			{"O2", 1, func() (int32, error) { return db.HundredByOID(oid) }},
		}
		for _, op := range ops {
			var got int32
			run := func() (err error) { got, err = op.run(); return err }
			frames, pages := measureCold(t, db, run)
			if got != want {
				t.Fatalf("%s(%d) = %d, want %d", op.name, id, got, want)
			}
			s := shapeOf(t, sp)
			sum := 0
			for _, h := range s.heights {
				sum += h
				if h < 2 {
					t.Fatalf("%s(%d): a tree of height %d leaves nothing to piggyback", op.name, id, h)
				}
			}
			if s.trees != op.trees || s.treePages != sum {
				t.Fatalf("%s(%d) entered %d trees reading %d tree pages (heights %v), want %d trees read root to leaf",
					op.name, id, s.trees, s.treePages, s.heights, op.trees)
			}
			if want := uint64(s.trees + s.other); frames != want {
				t.Errorf("%s(%d): %d frames, want %d (one per tree %v, one per data page)", op.name, id, frames, want, s.heights)
			}
			if want := uint64(sum + s.other); pages != want {
				t.Errorf("%s(%d): %d pages fetched, want %d (heights %v plus %d data pages)", op.name, id, pages, want, s.heights, s.other)
			}
			// Without the path fetch the same op waits on one frame per page.
			setPaths(sp, false)
			plainFrames, plainPages := measureCold(t, db, run)
			setPaths(sp, true)
			if plainFrames != uint64(sum+s.other) || plainPages != pages {
				t.Errorf("%s(%d) page at a time: %d frames, %d pages; want %d and %d",
					op.name, id, plainFrames, plainPages, sum+s.other, pages)
			}
			t.Logf("%s(%d): %d frames, page at a time %d; %d pages (heights %v)", op.name, id, frames, plainFrames, pages, s.heights)
		}
	}
}

// TestColdLookupRoundTrips: a cold O1 takes 3 frames (was 5) and a
// cold O2 2 (was 3) on levels 4 and 5, over a standalone client and
// over a one-shard cluster, and both fetch exactly the pages the
// page-at-a-time descent fetches.
func TestColdLookupRoundTrips(t *testing.T) {
	for _, level := range []int{4, 5} {
		t.Run(fmt.Sprintf("L%d", level), func(t *testing.T) {
			addr, lay := serveGenerated(t, level)
			c, err := Dial(addr, ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			db, err := oodb.New(c, oodb.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkColdLookups(t, db, lay)

			cc, err := DialClusterTable(RouteTable{Epoch: 1, Shards: []string{addr}}, ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cdb, err := oodb.New(cc, oodb.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer cdb.Close()
			checkColdLookups(t, cdb, lay)
		})
	}
}

// checkColdRanges pins the round trips of a cold O3 and O4. Each is a
// covering scan of one attribute index: its descent arrives in one
// frame, and each further leaf of the range in one more. The pages
// fetched are exactly the page-at-a-time scan's.
func checkColdRanges(t *testing.T, db *oodb.DB) {
	t.Helper()
	sp := db.Store()
	ops := []struct {
		name string
		run  func() ([]hyper.NodeID, error)
	}{
		{"O3(0)", func() ([]hyper.NodeID, error) { return hyper.RangeLookupHundred(db, 0) }},
		{"O3(45)", func() ([]hyper.NodeID, error) { return hyper.RangeLookupHundred(db, 45) }},
		{"O3(90)", func() ([]hyper.NodeID, error) { return hyper.RangeLookupHundred(db, 90) }},
		{"O4(0)", func() ([]hyper.NodeID, error) { return hyper.RangeLookupMillion(db, 0) }},
		{"O4(495000)", func() ([]hyper.NodeID, error) { return hyper.RangeLookupMillion(db, 495000) }},
		{"O4(990000)", func() ([]hyper.NodeID, error) { return hyper.RangeLookupMillion(db, 990000) }},
	}
	for _, op := range ops {
		want, err := op.run()
		if err != nil {
			t.Fatal(err)
		}
		var got []hyper.NodeID
		run := func() (err error) { got, err = op.run(); return err }
		frames, pages := measureCold(t, db, run)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s cold = %v, want %v", op.name, got, want)
		}
		s := shapeOf(t, sp)
		if s.trees != 1 || s.other != 0 || s.heights[0] < 2 {
			t.Fatalf("%s entered %d trees (heights %v) and read %d other pages, want one index of height 2 or more only",
				op.name, s.trees, s.heights, s.other)
		}
		further := s.treePages - s.heights[0]
		if want := uint64(1 + further); frames != want {
			t.Errorf("%s: %d frames, want %d (one for the descent, one per further leaf)", op.name, frames, want)
		}
		if pages != uint64(s.treePages) {
			t.Errorf("%s: %d pages fetched, %d tree pages resident", op.name, pages, s.treePages)
		}
		setPaths(sp, false)
		plainFrames, plainPages := measureCold(t, db, run)
		setPaths(sp, true)
		if plainFrames != pages || plainPages != pages {
			t.Errorf("%s page at a time: %d frames, %d pages; want %d and %d", op.name, plainFrames, plainPages, pages, pages)
		}
		t.Logf("%s: %d frames, page at a time %d; %d pages (height %d)", op.name, frames, plainFrames, pages, s.heights[0])
	}
}

// TestColdRangeRoundTrips: a cold O3 or O4 waits on one frame for its
// index descent, not one per level, on levels 4 and 5, over a
// standalone client and over a one-shard cluster.
func TestColdRangeRoundTrips(t *testing.T) {
	for _, level := range []int{4, 5} {
		t.Run(fmt.Sprintf("L%d", level), func(t *testing.T) {
			addr, _ := serveGenerated(t, level)
			c, err := Dial(addr, ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			db, err := oodb.New(c, oodb.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkColdRanges(t, db)

			cc, err := DialClusterTable(RouteTable{Epoch: 1, Shards: []string{addr}}, ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cdb, err := oodb.New(cc, oodb.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer cdb.Close()
			checkColdRanges(t, cdb)
		})
	}
}

// TestPathStopsAtShardBoundary generates a database over a two-shard
// cluster, where allocation rotates between shards every allocChunk
// pages, so B-trees have children on both shards. A shard's path walk
// must stop at a child the other shard owns, and the descent then
// continues there: every cold answer equals a standalone server's, the
// pages fetched are exactly the page-at-a-time descent's, and some
// descent does cross the boundary.
func TestPathStopsAtShardBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const level = 4
	addr, lay := serveGenerated(t, level)
	ref, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refDB, err := oodb.New(ref, oodb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer refDB.Close()

	cc, _ := startCluster(t, 2)
	db, err := oodb.New(cc, oodb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := hyper.Generate(db, hyper.GenConfig{LeafLevel: level, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	crossed := false
	for id := lay.FirstID(); id <= lay.LastID(); id += 7 {
		want, err := refDB.Hundred(id)
		if err != nil {
			t.Fatal(err)
		}
		var got int32
		run := func() (err error) { got, err = db.Hundred(id); return err }
		frames, pages := measureCold(t, db, run)
		if got != want {
			t.Fatalf("cluster O1(%d) = %d, standalone %d", id, got, want)
		}
		treeShards := make(map[int]bool)
		for sh, c := range sessions(cc) {
			for _, local := range c.pool.ResidentIDs() {
				f := c.pool.Get(local)
				if f.Page.Type() == page.TypeBTree {
					treeShards[sh] = true
				}
				c.pool.Release(f)
			}
		}
		crossed = crossed || len(treeShards) > 1

		setPaths(cc, false)
		plainFrames, plainPages := measureCold(t, db, run)
		setPaths(cc, true)
		if got != want {
			t.Fatalf("cluster O1(%d) page at a time = %d, standalone %d", id, got, want)
		}
		if pages != plainPages || frames > plainFrames {
			t.Fatalf("O1(%d): path descent %d frames / %d pages, page at a time %d / %d",
				id, frames, pages, plainFrames, plainPages)
		}
	}
	if !crossed {
		t.Fatal("no cold descent read B-tree pages on both shards; the boundary went untested")
	}
	kids, err := db.Children(lay.FirstID())
	if err != nil {
		t.Fatal(err)
	}
	refKids, err := refDB.Children(lay.FirstID())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(kids) != fmt.Sprint(refKids) {
		t.Fatalf("cluster children %v, standalone %v", kids, refKids)
	}
}

// buildTree puts n keys of klen bytes into a fresh B-tree in root slot
// 0 over the client, commits, and drops the client's cache. It returns
// the key maker.
func buildTree(t *testing.T, c *Client, n, klen int) func(i int) []byte {
	t.Helper()
	key := func(i int) []byte {
		k := make([]byte, klen)
		copy(k, btree.U64Key(uint64(i)))
		return k
	}
	tr, err := btree.Open(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	return key
}

// TestWarmDescentAllocs: once a remote B-tree's path is cached, a
// descent through GetPath allocates nothing.
func TestWarmDescentAllocs(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	key := buildTree(t, c, 1000, 8)
	tr, err := btree.Open(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := key(500)
	found := false
	fn := func(v []byte) error { found = v[0] == byte(500%256); return nil }
	if _, err := tr.View(k, fn); err != nil || !found {
		t.Fatalf("cold View: found=%v err=%v", found, err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := tr.View(k, fn); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("a warm remote descent allocates %v times, want 0", got)
	}
}

// TestServerRejectsLongPathKey: a key longer than btree.MaxKey is a
// malformed request.
func TestServerRejectsLongPathKey(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	req := append([]byte{opGetPath}, make([]byte, 8+btree.MaxKey+1)...)
	_, err := c.call(req)
	var se *ServerError
	if !errors.As(err, &se) || !se.BadRequest {
		t.Fatalf("oversized GetPath key answered %v, want a bad-request ServerError", err)
	}
	req = append([]byte{opGetPath}, make([]byte, 8+btree.MaxKey)...)
	if _, err := c.call(req); errors.As(err, &se) && se.BadRequest {
		t.Fatalf("a MaxKey-byte key was rejected: %v", err)
	}
}

package remote

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// gatedSpace is a store whose batch flushes a test can hold open.
// While armed, each CommitTokens call reports its batch size on entered
// and blocks until the test sends on release; hold adds a fixed time to
// every flush, standing in for a slow fsync.
type gatedSpace struct {
	*store.Store
	armed   atomic.Bool
	hold    time.Duration
	entered chan int
	release chan struct{}
}

func (g *gatedSpace) CommitTokens(tokens []uint64) error {
	if g.armed.Load() {
		g.entered <- len(tokens)
		<-g.release
	}
	time.Sleep(g.hold)
	return g.Store.CommitTokens(tokens)
}

// newGatedServer returns a server (not yet listening) over a gated
// fresh store holding n committed slotted pages, one per writer.
func newGatedServer(t *testing.T, n int, hold time.Duration) (*Server, *gatedSpace, []page.ID) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "gated.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]page.ID, n)
	for i := range ids {
		id, h, err := st.Alloc(page.TypeSlotted)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		ids[i] = id
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	g := &gatedSpace{Store: st, hold: hold, entered: make(chan int), release: make(chan struct{})}
	s := NewServer(g)
	t.Cleanup(func() {
		s.Close()
		st.Close()
	})
	return s, g, ids
}

// serveGated starts s listening and returns its address.
func serveGated(t *testing.T, s *Server) string {
	t.Helper()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr.String()
}

// writeReq is a tokened commit request that overwrites page id and
// read nothing, so validation always passes.
func writeReq(token uint64, id page.ID) *commitReq {
	img := page.New(page.TypeSlotted)
	img.Payload()[0] = byte(token)
	return &commitReq{token: token, writes: []writeEntry{{id: id, image: img.Bytes()}}}
}

// bumpPage is one client transaction: read page id, change a byte,
// commit.
func bumpPage(c *Client, id page.ID) error {
	h, err := c.Get(id)
	if err != nil {
		return err
	}
	h.Page().Payload()[0]++
	h.MarkDirty()
	h.Release()
	return c.Commit()
}

// queued reports how many commit jobs wait in the group-commit queue.
func queued(s *Server) int {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	return len(s.gcQueue)
}

// TestWritersLeaderHandsOff: a leader whose flush is done answers its
// own commit at once and hands leadership to the commit that queued
// during the flush. The leader's commit must return while that
// follower's flush is still held open, instead of waiting it out.
func TestWritersLeaderHandsOff(t *testing.T) {
	s, g, ids := newGatedServer(t, 2, 0)
	g.armed.Store(true)

	resA := make(chan commitResult, 1)
	go func() { resA <- s.commitGrouped(writeReq(1, ids[0])) }()
	if n := <-g.entered; n != 1 {
		t.Fatalf("leader's flush carries %d transactions, want 1", n)
	}
	resB := make(chan commitResult, 1)
	go func() { resB <- s.commitGrouped(writeReq(2, ids[1])) }()
	waitFor(t, 10*time.Second, func() bool { return queued(s) == 1 }, "the follower never queued behind the leader's flush")

	g.release <- struct{}{} // the leader's flush completes
	if n := <-g.entered; n != 1 {
		t.Fatalf("follower's flush carries %d transactions, want 1", n)
	}
	select {
	case r := <-resA:
		if r.err != nil || r.conflict {
			t.Errorf("leader's commit: %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Error("the leader's commit did not return while the follower's flush was held open")
	}
	g.release <- struct{}{}
	if r := <-resB; r.err != nil || r.conflict {
		t.Fatalf("follower's commit: %+v", r)
	}
	select {
	case <-resA:
	default:
	}
	if flushes, _, _, _, _ := s.GroupCommitStats(); flushes != 2 {
		t.Fatalf("%d flushes, want 2", flushes)
	}
}

// TestWritersShareFlushes: two clients that each re-commit as soon as
// their previous commit is acknowledged share flushes. Each keeps one
// commit in flight, so without the leader's wait for the committers
// the last flush saw, every flush would carry one transaction: one
// client's commit is always either leading or already acknowledged.
func TestWritersShareFlushes(t *testing.T) {
	const clients, perClient = 2, 20
	s, _, ids := newGatedServer(t, clients, 5*time.Millisecond)
	addr := serveGated(t, s)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for u := 0; u < clients; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			c, err := Dial(addr, ClientOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				if err := bumpPage(c, ids[u]); err != nil {
					errs <- err
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	commits, aborts, _ := s.Stats()
	flushes, batches, grouped, maxBatch, _ := s.GroupCommitStats()
	t.Logf("%d commits, %d aborts over %d flushes: %d batches, %d grouped, max batch %d",
		commits, aborts, flushes, batches, grouped, maxBatch)
	if commits != clients*perClient || aborts != 0 {
		t.Fatalf("%d commits and %d aborts, want %d and 0", commits, aborts, clients*perClient)
	}
	if grouped == 0 || flushes >= commits {
		t.Fatalf("no flush was shared: %d grouped transactions, %d flushes for %d commits", grouped, flushes, commits)
	}
}

// TestWritersLoneCommitterNeverWaits: with one committer the last
// flush saw exactly one peer, which is already queued when it leads,
// so no commit waits for company that is not coming.
func TestWritersLoneCommitterNeverWaits(t *testing.T) {
	const commits = 30
	s, _, ids := newGatedServer(t, 1, time.Millisecond)
	addr := serveGated(t, s)
	c := dial(t, addr)
	for i := 0; i < commits; i++ {
		if err := bumpPage(c, ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	if w := s.gcWaits.Load(); w != 0 {
		t.Fatalf("a lone committer's leader waited %d times, want 0", w)
	}
	if flushes, _, grouped, _, _ := s.GroupCommitStats(); flushes != commits || grouped != 0 {
		t.Fatalf("%d flushes with %d grouped for %d lone commits", flushes, grouped, commits)
	}
}

// TestWritersShutdownDuringWait: a leader waiting for peers that the
// last flush saw gives up the wait when the server shuts down, so a
// graceful Shutdown answers every queued commit well inside the wait
// bound (the last flush's duration) rather than after it.
func TestWritersShutdownDuringWait(t *testing.T) {
	const bound = time.Second
	s, g, ids := newGatedServer(t, 3, 0)
	addr := serveGated(t, s)
	g.armed.Store(true)

	commit := func(u int) chan error {
		done := make(chan error, 1)
		go func() {
			c, err := Dial(addr, ClientOptions{})
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			done <- bumpPage(c, ids[u])
		}()
		return done
	}
	first := commit(0)
	<-g.entered // the first commit leads; its flush is held
	second, third := commit(1), commit(2)
	waitFor(t, 10*time.Second, func() bool { return queued(s) == 2 }, "two commits never queued behind the held flush")

	// Hold the flush for the bound, so the next leader (the second
	// commit) expects three peers, finds two, and waits up to bound.
	time.Sleep(bound)
	g.armed.Store(false)
	g.release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return s.gcWaits.Load() == 1 }, "the next leader never waited for its peers")

	start := time.Now()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(10 * time.Second) }()
	for i, done := range []chan error{second, third} {
		if err := <-done; err != nil {
			t.Fatalf("queued commit %d: %v", i+2, err)
		}
	}
	if took := time.Since(start); took >= bound/2 {
		t.Fatalf("queued commits answered %v after Shutdown began; the wait bound is %v", took, bound)
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if commits, _, _ := s.Stats(); commits != 3 {
		t.Fatalf("%d commits applied, want 3", commits)
	}
}

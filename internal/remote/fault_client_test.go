package remote

import (
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hypermodel/internal/fault"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// scriptAction tells the scripted server what to do with one request
// frame.
type scriptAction int

const (
	actServe      scriptAction = iota // dispatch and answer normally
	actDropBefore                     // close the connection without dispatching
	actDropAfter                      // dispatch, then close without answering
	actReject                         // answer statusError without dispatching
	actSwallow                        // dispatch but never answer (hang the client)
	actTruncate                       // dispatch, send truncateAt bytes of the answer, close
	actCorrupt                        // dispatch, flip the answer's last payload byte, send
)

type scriptStep struct {
	act        scriptAction
	truncateAt int
}

// scriptedServer fronts a real *Server with a per-frame script indexed
// by a global frame counter (across reconnects), so tests can stage
// transport failures at exact protocol moments. The script sees the
// request body (opcode first, request ID already stripped); responses
// echo the request's ID per the multiplexed framing. Requests are
// served in arrival order on each connection — the determinism the
// exact-count assertions below rely on. Frames beyond the script are
// served normally.
func scriptedServer(t *testing.T, srv *Server, script func(frame int, req []byte) scriptStep) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	frame := 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					raw, err := readFrame(conn)
					if err != nil || len(raw) < muxHeaderLen {
						return
					}
					id := binary.LittleEndian.Uint64(raw)
					req := raw[muxHeaderLen:]
					mu.Lock()
					idx := frame
					frame++
					mu.Unlock()
					withID := func(status byte, payload []byte) []byte {
						full := binary.LittleEndian.AppendUint64(nil, id)
						full = append(full, status)
						return append(full, payload...)
					}
					step := script(idx, req)
					switch step.act {
					case actDropBefore:
						return
					case actReject:
						if writeFrame(conn, withID(statusError, []byte("scripted rejection"))) != nil {
							return
						}
						continue
					}
					resp, conflict, rerr := srv.dispatch(req)
					var full []byte
					switch {
					case conflict:
						full = withID(statusConflict, nil)
					case rerr != nil:
						full = withID(statusError, []byte(rerr.Error()))
					default:
						full = withID(statusOK, resp)
					}
					switch step.act {
					case actDropAfter:
						return
					case actSwallow:
						continue // next readFrame blocks until the client hangs up
					case actTruncate:
						var hdr [4]byte
						binary.LittleEndian.PutUint32(hdr[:], uint32(len(full)))
						framed := append(hdr[:], full...)
						conn.Write(framed[:step.truncateAt])
						return
					case actCorrupt:
						// Framing stays intact; only the payload is
						// damaged — the fault a checksum must catch.
						full[len(full)-1] ^= 0xFF
						if writeFrame(conn, full) != nil {
							return
						}
					default:
						if writeFrame(conn, full) != nil {
							return
						}
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// newBackedServer returns a Server over a fresh store, without a
// listener (scriptedServer provides the transport).
func newBackedServer(t *testing.T) *Server {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "scripted.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return NewServer(st)
}

// fastRetry keeps redial backoff out of test wall-clock.
func fastRetry() ClientOptions {
	return ClientOptions{
		BackoffBase:    50 * time.Microsecond,
		BackoffMax:     time.Millisecond,
		RequestTimeout: 5 * time.Second,
	}
}

// TestClientRetriesTruncatedResponse truncates the response to the
// client's very first request (the Dial-time roots fetch) at every
// possible byte offset. The client must classify each of them as a
// transport failure, redial, resend, and come up healthy.
func TestClientRetriesTruncatedResponse(t *testing.T) {
	srv := newBackedServer(t)
	// Full roots response frame: header + request ID + status +
	// rootsVer + roots.
	frameLen := 4 + muxHeaderLen + 1 + 8 + 8*store.NumRoots
	for k := 0; k < frameLen; k++ {
		addr := scriptedServer(t, srv, func(frame int, req []byte) scriptStep {
			if frame == 0 {
				return scriptStep{act: actTruncate, truncateAt: k}
			}
			return scriptStep{act: actServe}
		})
		c, err := Dial(addr, fastRetry())
		if err != nil {
			t.Fatalf("truncate at %d: Dial failed: %v", k, err)
		}
		if rs := c.RetryStats(); rs.Reconnects == 0 || rs.Retries == 0 {
			t.Fatalf("truncate at %d: no reconnect recorded: %+v", k, rs)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("truncate at %d: ping after recovery: %v", k, err)
		}
		c.Close()
	}
}

// TestClientRetriesDroppedFetch: a Get whose response connection dies
// mid-flight is retried transparently.
func TestClientRetriesDroppedFetch(t *testing.T) {
	srv := newBackedServer(t)
	var dropFrame int
	addr := scriptedServer(t, srv, func(frame int, req []byte) scriptStep {
		if frame == dropFrame {
			return scriptStep{act: actDropAfter}
		}
		return scriptStep{act: actServe}
	})
	dropFrame = -1
	c, err := Dial(addr, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, h, err := c.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.Page().Payload()[0] = 42
	h.MarkDirty()
	h.Release()
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	// Frames so far: roots, alloc, commit, roots (DropCache). Drop the
	// next one: the Get fetch.
	dropFrame = 4
	h2, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get through dropped connection: %v", err)
	}
	defer h2.Release()
	if h2.Page().Payload()[0] != 42 {
		t.Fatalf("page content corrupted across retry: %d", h2.Page().Payload()[0])
	}
	if rs := c.RetryStats(); rs.Reconnects != 1 || rs.Retries != 1 {
		t.Fatalf("retry stats = %+v, want 1 reconnect / 1 retry", rs)
	}
}

// TestCommitAckLost: the commit reaches the server but the
// acknowledgement is lost. The client must reconnect, learn through
// its commit token that the transaction applied, and report success —
// without resending (which would double-apply without dedup).
func TestCommitAckLost(t *testing.T) {
	srv := newBackedServer(t)
	addr := scriptedServer(t, srv, func(frame int, req []byte) scriptStep {
		if len(req) > 0 && req[0] == opCommit {
			return scriptStep{act: actDropAfter}
		}
		return scriptStep{act: actServe}
	})
	c, err := Dial(addr, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, h, err := c.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty()
	h.Release()
	if err := c.Commit(); err != nil {
		t.Fatalf("commit with lost ack: %v", err)
	}
	commits, _, _ := srv.Stats()
	if commits != 1 {
		t.Fatalf("server applied %d commits, want exactly 1", commits)
	}
	rs := c.RetryStats()
	if rs.CommitChecks != 1 || rs.CommitResends != 0 || rs.CommitUnknowns != 0 {
		t.Fatalf("resolution stats = %+v, want 1 check, 0 resends", rs)
	}
}

// TestCommitLostBeforeServer: the connection dies before the commit
// frame is processed. The client must verify non-application through
// the token and only then resend.
func TestCommitLostBeforeServer(t *testing.T) {
	srv := newBackedServer(t)
	dropped := false
	var mu sync.Mutex
	addr := scriptedServer(t, srv, func(frame int, req []byte) scriptStep {
		mu.Lock()
		defer mu.Unlock()
		if len(req) > 0 && req[0] == opCommit && !dropped {
			dropped = true
			return scriptStep{act: actDropBefore}
		}
		return scriptStep{act: actServe}
	})
	c, err := Dial(addr, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, h, err := c.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty()
	h.Release()
	if err := c.Commit(); err != nil {
		t.Fatalf("commit dropped before server: %v", err)
	}
	commits, _, _ := srv.Stats()
	if commits != 1 {
		t.Fatalf("server applied %d commits, want exactly 1", commits)
	}
	rs := c.RetryStats()
	if rs.CommitChecks != 1 || rs.CommitResends != 1 {
		t.Fatalf("resolution stats = %+v, want 1 check, 1 resend", rs)
	}
}

// TestCommitUnknown: when neither the commit nor any resolution probe
// can get through within the retry budget, the typed ErrCommitUnknown
// surfaces and the client never blindly resends.
func TestCommitUnknown(t *testing.T) {
	srv := newBackedServer(t)
	var failing bool
	var mu sync.Mutex
	addr := scriptedServer(t, srv, func(frame int, req []byte) scriptStep {
		mu.Lock()
		defer mu.Unlock()
		if failing {
			return scriptStep{act: actDropBefore}
		}
		return scriptStep{act: actServe}
	})
	opts := fastRetry()
	opts.RetryLimit = 3
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, h, err := c.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty()
	h.Release()
	mu.Lock()
	failing = true
	mu.Unlock()
	err = c.Commit()
	if !errors.Is(err, ErrCommitUnknown) {
		t.Fatalf("commit through dead network = %v, want ErrCommitUnknown", err)
	}
	commits, _, _ := srv.Stats()
	if commits != 0 {
		t.Fatalf("server applied %d commits, want 0", commits)
	}
	if rs := c.RetryStats(); rs.CommitUnknowns != 1 || rs.CommitResends != 0 {
		t.Fatalf("resolution stats = %+v, want 1 unknown, 0 resends", rs)
	}
}

// TestCommitTokenDedup exercises the server's dedup ring directly: the
// same tokened commit frame applied twice must commit once.
func TestCommitTokenDedup(t *testing.T) {
	srv := newBackedServer(t)
	// Materialize a page to write.
	id, h, err := srv.st.Alloc(page.TypeSlotted)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	img := make([]byte, page.Size)
	req := &commitReq{
		token:  0xfeedface,
		writes: []writeEntry{{id, img}},
	}
	enc := encodeCommit(req)
	for i := 0; i < 2; i++ {
		_, conflict, err := srv.dispatch(enc)
		if err != nil || conflict {
			t.Fatalf("send %d: conflict=%v err=%v", i, conflict, err)
		}
	}
	commits, _, _ := srv.Stats()
	dup, _ := srv.FaultStats()
	if commits != 1 || dup != 1 {
		t.Fatalf("commits=%d dup=%d, want 1 and 1", commits, dup)
	}
}

// TestBatchDowngrade: a server that refuses opGetPages must downgrade
// the client to per-page fetches — transparently, with the downgrade
// recorded and the batch never attempted again.
func TestBatchDowngrade(t *testing.T) {
	srv := newBackedServer(t)
	addr := scriptedServer(t, srv, func(frame int, req []byte) scriptStep {
		if len(req) > 0 && req[0] == opGetPages {
			return scriptStep{act: actReject}
		}
		return scriptStep{act: actServe}
	})
	c, err := Dial(addr, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ids []page.ID
	for i := 0; i < 5; i++ {
		id, h, err := c.Alloc(page.TypeSlotted)
		if err != nil {
			t.Fatal(err)
		}
		h.Page().Payload()[0] = byte(i + 1)
		h.MarkDirty()
		h.Release()
		ids = append(ids, id)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	if err := c.Prefetch(ids); err != nil {
		t.Fatalf("prefetch against batch-refusing server: %v", err)
	}
	for i, id := range ids {
		h, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if h.Page().Payload()[0] != byte(i+1) {
			t.Fatalf("page %d content %d after downgrade", i, h.Page().Payload()[0])
		}
		h.Release()
	}
	if rs := c.RetryStats(); rs.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", rs.Downgrades)
	}
	_, batched := c.FrameStats()
	if batched != 1 {
		t.Fatalf("batch frames = %d, want exactly the one refused attempt", batched)
	}
	// A later prefetch must not try the batch path again.
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	if err := c.Prefetch(ids); err != nil {
		t.Fatal(err)
	}
	if _, batched2 := c.FrameStats(); batched2 != 1 {
		t.Fatalf("client re-attempted refused batch (frames %d)", batched2)
	}
}

// TestBatchLostInTransitDegrades: a batched fetch whose every attempt
// dies in transit must not fail the prefetch while single pages still
// get through. The client falls back to per-page fetches for that call
// only, records the downgrade, and tries the batch path again next
// time.
func TestBatchLostInTransitDegrades(t *testing.T) {
	srv := newBackedServer(t)
	addr := scriptedServer(t, srv, func(frame int, req []byte) scriptStep {
		if len(req) > 0 && req[0] == opGetPages {
			return scriptStep{act: actDropAfter}
		}
		return scriptStep{act: actServe}
	})
	opts := fastRetry()
	opts.RetryLimit = 2
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ids []page.ID
	for i := 0; i < 5; i++ {
		id, h, err := c.Alloc(page.TypeSlotted)
		if err != nil {
			t.Fatal(err)
		}
		h.Page().Payload()[0] = byte(i + 1)
		h.MarkDirty()
		h.Release()
		ids = append(ids, id)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	if err := c.Prefetch(ids); err != nil {
		t.Fatalf("prefetch with every batch lost in transit: %v", err)
	}
	for i, id := range ids {
		h, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if h.Page().Payload()[0] != byte(i+1) {
			t.Fatalf("page %d content %d after downgrade", i, h.Page().Payload()[0])
		}
		h.Release()
	}
	// Two retries of the batch, then at least one redial of the
	// connection the last attempt left dead.
	if rs := c.RetryStats(); rs.Downgrades != 1 || rs.Retries < 2 {
		t.Fatalf("retry stats = %+v, want 1 downgrade after the batch's 2 retries", rs)
	}
	// The batch path stays open: the next prefetch tries it again.
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	if err := c.Prefetch(ids); err != nil {
		t.Fatal(err)
	}
	if _, batched := c.FrameStats(); batched != 2 {
		t.Fatalf("batch requests = %d after two prefetches, want 2", batched)
	}
}

// TestCloseIdempotentConcurrent: Close must be callable repeatedly and
// concurrently with an in-flight request, which fails promptly instead
// of retrying forever.
func TestCloseIdempotentConcurrent(t *testing.T) {
	srv := newBackedServer(t)
	addr := scriptedServer(t, srv, func(frame int, req []byte) scriptStep {
		if frame == 0 {
			return scriptStep{act: actServe} // Dial's roots fetch
		}
		return scriptStep{act: actSwallow} // everything later hangs
	})
	c, err := Dial(addr, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := c.Get(page.ID(3))
		got <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Get block in its read
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("in-flight Get succeeded against a hung server after Close")
		}
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight Get after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight Get still blocked after Close")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
}

// TestClientThroughFlakyProxy: an end-to-end smoke over the fault
// proxy — random drops, delays and partial writes — must be absorbed
// by the retry machinery without corrupting data.
func TestClientThroughFlakyProxy(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "flaky.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := NewServer(st)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	px, err := fault.NewProxy(addr.String(), fault.Config{
		Seed: 11, DropProb: 0.05, DelayProb: 0.05, MaxDelay: time.Millisecond, PartialProb: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	c, err := Dial(px.Addr(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ids []page.ID
	for i := 0; i < 20; i++ {
		id, h, err := c.Alloc(page.TypeSlotted)
		if err != nil {
			t.Fatal(err)
		}
		h.Page().Payload()[0] = byte(i)
		h.MarkDirty()
		h.Release()
		ids = append(ids, id)
		if err := c.Commit(); err != nil {
			t.Fatalf("commit %d through flaky proxy: %v", i, err)
		}
	}
	if err := c.DropCache(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		h, err := c.Get(id)
		if err != nil {
			t.Fatalf("get %d through flaky proxy: %v", i, err)
		}
		if h.Page().Payload()[0] != byte(i) {
			t.Fatalf("page %d corrupted through flaky proxy", i)
		}
		h.Release()
	}
	if px.Stats().Total() == 0 {
		t.Fatal("proxy injected no faults; test exercised nothing")
	}
	if rs := c.RetryStats(); rs.CommitUnknowns != 0 {
		t.Fatalf("flaky run left %d unknown commits", rs.CommitUnknowns)
	}
}

package remote

import (
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hypermodel/internal/btree"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// FuzzDecodeCommit: a hostile or corrupted client must not be able to
// panic the server's commit decoder.
func FuzzDecodeCommit(f *testing.F) {
	f.Add([]byte{})
	img := make([]byte, page.Size)
	good := encodeCommit(&commitReq{
		reads:  []readEntry{{1, 2}},
		writes: []writeEntry{{3, img}},
		roots:  []rootEntry{{0, 9}},
		frees:  []page.ID{4},
	})
	f.Add(good[1:]) // decoder sees the body without the opcode
	f.Add([]byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeCommit(data)
		if err != nil {
			return
		}
		// Accepted requests re-encode to the same body.
		re := encodeCommit(req)
		if len(re)-1 != len(data) {
			t.Fatalf("round trip changed size: %d -> %d", len(data), len(re)-1)
		}
	})
}

// muxFrame assembles one length-prefixed mux frame: id, then body.
func muxFrame(id uint64, body ...byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(8+len(body)))
	b = binary.LittleEndian.AppendUint64(b, id)
	return append(b, body...)
}

// FuzzClientDemux feeds an arbitrary server-side byte stream to the
// client's demultiplexing core while requests are in flight. Whatever
// the stream contains — interleaved and out-of-order responses,
// duplicate IDs, responses for IDs nobody asked for, truncated or
// oversized frames, a connection-level error, garbage — the demux must
// never panic, never route a response to the wrong waiter, and every
// in-flight request must return once the stream ends.
func FuzzClientDemux(f *testing.F) {
	// In-order, then reversed-order responses for the three real
	// requests the harness issues (IDs 1..3).
	f.Add(concat(muxFrame(1, statusOK, 'a'), muxFrame(2, statusOK, 'b'), muxFrame(3, statusOK, 'c')))
	f.Add(concat(muxFrame(3, statusConflict), muxFrame(2, statusError, 'x'), muxFrame(1, statusBadRequest)))
	// Duplicate ID: the second response has no waiter left.
	f.Add(concat(muxFrame(1, statusOK), muxFrame(1, statusOK)))
	// Response for an ID nobody asked for.
	f.Add(muxFrame(99, statusOK, 'z'))
	// Connection-level error on the reserved ID zero.
	f.Add(muxFrame(0, statusError, 's', 'e', 'r', 'v', 'e', 'r', ' ', 'b', 'u', 's', 'y'))
	// Runt frame: too short for ID + status.
	f.Add(binary.LittleEndian.AppendUint32(nil, 3))
	// Truncated mid-header and mid-body.
	f.Add(muxFrame(1, statusOK, 'a')[:5])
	f.Add([]byte{255, 255, 255, 255, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := &Client{opts: ClientOptions{}.withDefaults(), hist: make(map[byte]*opHist)}
		cli, srv := net.Pipe()
		m := newMuxConn(c, cli)
		go io.Copy(io.Discard, srv) // absorb the requests' own frames

		results := make(chan wireResp, 3)
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload, err := m.do([]byte{opPing}, 0)
				results <- wireResp{payload: payload, err: err}
			}()
		}
		// Let the requests register before the stream plays, so frames
		// for IDs 1..3 have waiters to route to.
		deadline := time.Now().Add(time.Second)
		for {
			m.mu.Lock()
			n := len(m.pending)
			dead := m.dead
			m.mu.Unlock()
			if n == 3 || dead || time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		srv.Write(stream)
		srv.Close() // EOF: the demux kills the conn and drains stragglers
		wg.Wait()
		close(results)
		for r := range results {
			if r.err == nil && r.payload == nil {
				t.Fatal("request resolved with neither payload nor error")
			}
		}
		// The reader retires the connection when it sees EOF; give it a
		// moment — requests may all have resolved before it noticed.
		for waited := 0; !m.isDead(); waited++ {
			if waited > 1000 {
				t.Fatal("demux survived stream EOF without retiring the connection")
			}
			time.Sleep(time.Millisecond)
		}
		m.kill(ErrClosed) // idempotent
	})
}

func concat(frames ...[]byte) []byte {
	var out []byte
	for _, fr := range frames {
		out = append(out, fr...)
	}
	return out
}

// FuzzServerStream feeds an arbitrary client-side byte stream to a
// live server connection handler. Truncations at any offset, runt
// frames shorter than a request ID, unknown opcodes, duplicated IDs
// and interleaved pipelined requests must never panic the server or
// wedge its handler.
func FuzzServerStream(f *testing.F) {
	f.Add(muxFrame(1, opPing))
	f.Add(concat( // pipelined requests, duplicate IDs included
		muxFrame(1, opPing),
		muxFrame(2, binary.LittleEndian.AppendUint64([]byte{opGetPage}, 1)...),
		muxFrame(2, opRoots),
		muxFrame(3, opStats),
	))
	f.Add(muxFrame(7, 200))                         // unknown opcode
	f.Add(binary.LittleEndian.AppendUint32(nil, 3)) // runt: no room for an ID
	f.Add(muxFrame(1, opPing)[:6])                  // truncated mid-ID
	f.Add([]byte{255, 255, 255, 255})               // oversized length prefix
	f.Add(muxFrame(5, opCommit, 1, 2, 3))           // truncated commit body

	st, err := store.Open(filepath.Join(f.TempDir(), "fuzz.db"), nil)
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	// opGetPath seeds: a truncated body, a root that is not a B-tree
	// page, and the deepest path of a three-level tree.
	f.Add(muxFrame(8, opGetPath, 1, 2, 3))
	slotted, h, err := st.Alloc(page.TypeSlotted)
	if err != nil {
		f.Fatal(err)
	}
	h.Release()
	f.Add(muxFrame(9, binary.LittleEndian.AppendUint64([]byte{opGetPath}, uint64(slotted))...))
	root, last := deepTree(f, st)
	deepest := binary.LittleEndian.AppendUint64([]byte{opGetPath}, uint64(root))
	f.Add(muxFrame(10, append(deepest, last...)...))
	srv := NewServer(st)
	f.Fuzz(func(t *testing.T, stream []byte) {
		cli, conn := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(conn)
		}()
		go io.Copy(io.Discard, cli) // absorb whatever the server answers
		cli.Write(stream)
		cli.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("server handler wedged on fuzzed stream")
		}
	})
}

// deepTree commits a B-tree of at least three levels into root slot 0
// (long keys keep the fanout small) and returns its root and its
// largest key.
func deepTree(f *testing.F, st *store.Store) (page.ID, []byte) {
	f.Helper()
	tr, err := btree.Open(st, 0)
	if err != nil {
		f.Fatal(err)
	}
	key := make([]byte, 200)
	for i := 0; i < 1000; i++ {
		copy(key, btree.U64Key(uint64(i)))
		if err := tr.Put(key, nil); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		f.Fatal(err)
	}
	depth := 1
	for id := st.Root(0); ; depth++ {
		h, err := st.Get(id)
		if err != nil {
			f.Fatal(err)
		}
		child, ok := btree.ChildFor(h.Page(), key)
		h.Release()
		if !ok {
			break
		}
		id = child
	}
	if depth < 3 {
		f.Fatalf("seed tree has %d levels, want at least 3", depth)
	}
	return st.Root(0), key
}

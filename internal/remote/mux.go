package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// errTimeout marks a request that outlived its per-request deadline.
// The transport is presumed stalled, so the whole connection is
// retired; the error is transport-class, so idempotent requests retry
// on a fresh connection.
var errTimeout = errors.New("remote: request deadline exceeded")

// muxConn is the client's demultiplexing core for one connection. A
// writer goroutine serializes request frames onto the wire (many
// callers, one writer — no lock is ever held across conn I/O), and a
// reader goroutine routes response frames to per-request channels by
// ID. Any transport failure — a read or write error, a request
// deadline, Close — kills the whole connection and drains every
// pending request with the same cause: once the framing is in doubt
// there is no salvaging individual requests on it.
type muxConn struct {
	conn net.Conn
	c    *Client // counter/stats sink

	writeCh chan []byte
	down    chan struct{} // closed by kill

	sem chan struct{} // caps in-flight requests; nil = unlimited

	mu      sync.Mutex
	nextID  uint64 // last assigned request ID; never zero
	pending map[uint64]chan wireResp
	dead    bool
	cause   error
}

// wireResp is one routed response: the payload past the status byte,
// or the error the status (or the transport) turned into.
type wireResp struct {
	payload []byte
	err     error
}

func newMuxConn(c *Client, conn net.Conn) *muxConn {
	m := &muxConn{
		conn:    conn,
		c:       c,
		writeCh: make(chan []byte, 32),
		down:    make(chan struct{}),
		pending: make(map[uint64]chan wireResp),
	}
	if n := c.opts.MaxInflight; n > 0 {
		m.sem = make(chan struct{}, n)
	}
	go m.writeLoop()
	go m.readLoop()
	return m
}

func (m *muxConn) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// kill retires the connection: the first cause wins, every pending
// request fails with it (reconnect draining — no request is left
// hanging on a dead connection), and both pump goroutines unwind
// (closing the conn unblocks any read or write in flight).
func (m *muxConn) kill(cause error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	m.cause = cause
	pend := m.pending
	m.pending = nil
	close(m.down)
	m.mu.Unlock()
	m.conn.Close()
	for _, ch := range pend {
		ch <- wireResp{err: cause}
	}
}

// deathCause reports why the connection died (errNotConnected if it
// somehow has not died yet — callers only ask after seeing down).
func (m *muxConn) deathCause() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cause != nil {
		return m.cause
	}
	return errNotConnected
}

func (m *muxConn) writeLoop() {
	for {
		select {
		case frame := <-m.writeCh:
			if _, err := m.conn.Write(frame); err != nil {
				m.kill(fmt.Errorf("remote: send: %w", err))
				return
			}
		case <-m.down:
			return
		}
	}
}

// readLoop is the demultiplexer: the one goroutine that reads response
// frames, routing each to its requester by ID. A response for an ID
// nobody is waiting on (a request that timed out locally, or a
// misbehaving server) is counted and dropped — never misrouted. ID
// zero is a connection-level error raised by the server outside any
// request ("server busy"); it kills the connection with that server
// error as the cause, so every pending request fails with a definite,
// non-retriable answer.
func (m *muxConn) readLoop() {
	for {
		frame, err := readFrame(m.conn)
		if err != nil {
			m.kill(fmt.Errorf("remote: receive: %w", err))
			return
		}
		if len(frame) < muxHeaderLen+1 {
			// Too short for an ID and a status byte: protocol desync;
			// retire the connection rather than guess.
			m.kill(errors.New("remote: runt response frame"))
			return
		}
		id := frameID(frame)
		body := frame[muxHeaderLen:]
		if id == connReqID {
			_, rerr := decodeStatus(body)
			if rerr == nil {
				rerr = errors.New("remote: server sent OK on the connection-level ID")
			}
			m.kill(rerr)
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[id]
		if ok {
			delete(m.pending, id)
		}
		m.mu.Unlock()
		if !ok {
			m.c.unknownResps.Add(1)
			continue
		}
		payload, rerr := decodeStatus(body)
		ch <- wireResp{payload: payload, err: rerr}
	}
}

// decodeStatus splits a response body (status byte + payload) into the
// payload, or the typed error the status encodes.
func decodeStatus(body []byte) ([]byte, error) {
	switch body[0] {
	case statusOK:
		return body[1:], nil
	case statusConflict:
		return nil, ErrConflict
	case statusBadRequest:
		return nil, &ServerError{BadRequest: true, Msg: string(body[1:])}
	case statusCorrupt:
		return nil, decodeCorrupt(body[1:])
	default:
		return nil, &ServerError{Msg: string(body[1:])}
	}
}

// forget abandons a pending request (the frame never reached the
// writer). Safe after kill: delete on a nil map is a no-op.
func (m *muxConn) forget(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// do runs one request round trip: assign an ID, register the response
// channel, enqueue the frame, wait. payload is opcode + body; the wire
// frame (length prefix, then ID, then payload) is assembled here — the
// client's single appendFrameID site, pinned by the wiresym analyzer.
//
// A request that exceeds timeout kills the connection: the protocol
// has no cancel message, and a transport that cannot deliver an answer
// in time cannot be trusted to keep pairing answers with waiters.
func (m *muxConn) do(payload []byte, timeout time.Duration) ([]byte, error) {
	if m.sem != nil {
		queued := time.Now()
		select {
		case m.sem <- struct{}{}:
			m.c.queueWaitNs.Add(time.Since(queued).Nanoseconds())
		case <-m.down:
			return nil, m.deathCause()
		}
		defer func() { <-m.sem }()
	}
	ch := make(chan wireResp, 1)
	m.mu.Lock()
	if m.dead {
		cause := m.cause
		m.mu.Unlock()
		return nil, cause
	}
	m.nextID++
	id := m.nextID
	m.pending[id] = ch
	m.mu.Unlock()

	frame := make([]byte, 4, 4+muxHeaderLen+len(payload))
	frame = appendFrameID(frame, id)
	frame = append(frame, payload...)
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	select {
	case m.writeCh <- frame:
	case <-m.down:
		m.forget(id)
		return nil, m.deathCause()
	}
	if timeout <= 0 {
		r := <-ch
		return r.payload, r.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.payload, r.err
	case <-timer.C:
		m.kill(errTimeout)
		return nil, errTimeout
	}
}

package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hypermodel/internal/btree"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/pager"
	"hypermodel/internal/storage/store"
)

// Server exposes a local page store to workstation clients over TCP.
// The server machine remains the coordination point, as in the
// centralized-control architectures the paper discusses under R6, but
// neither reads nor commits queue one-at-a-time behind it: page
// fetches are served from the store's committed ReadView (when the
// space offers one), so N connections fetch in parallel with each
// other and with an in-flight commit; and concurrent commit requests
// are group-committed — a leader absorbs the queue, validates each
// transaction's read set against the newest versions, and flushes the
// whole batch under a single WAL fsync, so commit throughput scales
// with writer concurrency instead of serializing on the sync. A space
// that offers no read view (a fault-injection wrapper, say) degrades
// to serialized fetches; SetGroupCommit(false) restores serialized
// commits as a measurable baseline.
//
// The server is hardened against misbehaving clients and networks: a
// malformed frame gets a statusBadRequest answer (and the connection
// survives), a panic while executing one request is confined to that
// request, idle connections are reaped by a read deadline, and a
// max-connection limit refuses excess clients cleanly instead of
// accepting work it cannot serve.
type Server struct {
	// mu is the writer lock: commits, allocations and commit-token
	// bookkeeping hold it. Fetches served off the read view do not.
	mu sync.Mutex
	st store.Space
	// view is st's committed read view, when st offers one. nil means
	// every request serializes under mu.
	view *store.ReadView
	// versionMu guards the optimistic-concurrency version table, which
	// parallel fetch handlers read while a commit bumps it. A fetch
	// must read the version before the page bytes, and a commit must
	// bump versions only after the store has installed the new images:
	// then a racing fetch can only pair an old version with new bytes —
	// a spurious abort at validation time — never the reverse, which
	// would be a lost update.
	versionMu sync.Mutex
	versions  map[page.ID]uint64 // bumped on every committed write

	ln      net.Listener
	wg      sync.WaitGroup
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	closed  chan struct{}
	commits atomic.Uint64
	aborts  atomic.Uint64
	fetches atomic.Uint64

	// commitSeq counts applied transactions. Clients learn it from the
	// roots fetch and from every commit acknowledgement, and send it
	// back as the snapshot their reads are based on: a commit whose
	// snapshot still equals commitSeq at validation time needs no
	// per-page read-set check, because nothing has committed since the
	// client's caches were known-current.
	commitSeq atomic.Uint64

	// Group-commit queue: concurrent commit requests enqueue here; the
	// first becomes the leader and drains the queue batch by batch,
	// validating and applying each transaction in arrival order and
	// flushing the whole batch under one store commit (one WAL fsync).
	// Guarded by gcMu. SetGroupCommit(false) restores the serialized
	// one-fsync-per-commit baseline.
	gcMu     sync.Mutex
	gcQueue  []*commitJob
	gcActive bool
	noGroup  bool

	// Commit batching counters (see GroupCommitStats).
	gcFlushes atomic.Uint64
	gcBatches atomic.Uint64
	gcGrouped atomic.Uint64
	gcMax     atomic.Uint64
	fastOK    atomic.Uint64

	// Commit-token dedup ring: the tokens of the most recent applied
	// commits, so a commit resent after a lost acknowledgement is
	// recognized and answered OK without being applied twice. Guarded
	// by mu.
	tokens     map[uint64]struct{}
	tokenLog   []uint64 // insertion order; oldest evicted past tokenRingSize
	dupCommits atomic.Uint64

	// Two-phase commit state for cross-shard transactions. prepared
	// holds the in-doubt entries (token → staged write set metadata);
	// abortedT/abortedLog remember durable abort decisions so a
	// participant polling for an outcome gets a definite answer.
	// All guarded by mu.
	prepared   map[uint64]*prepEntry
	abortedT   map[uint64]struct{}
	abortedLog []uint64

	// Shard identity and the routing table served by opRouteTable.
	// shardID is this server's position in the table (set before
	// Serve); the table itself is swappable at runtime under routeMu.
	shardID    int
	routeMu    sync.Mutex
	routeEpoch uint64
	routeAddrs []string

	// In-doubt resolver configuration (see SetResolver) and counters.
	resolveEvery    time.Duration
	prepareAge      time.Duration
	resolverOnce    sync.Once
	crossPrepares   atomic.Uint64
	crossCommits    atomic.Uint64
	crossAborts     atomic.Uint64
	resolvedInDoubt atomic.Uint64

	// verBase rebases every published page version after a restart:
	// the version table is in-memory, so without it a restarted server
	// would hand out versions starting from zero again and a client
	// holding pre-restart versions could validate against the wrong
	// history. Shifting the store's committed sequence left 16 bits
	// leaves room for 65536 version bumps per flush epoch — far beyond
	// any real batch — so post-restart versions never collide with
	// pre-restart ones.
	verBase uint64

	idleTimeout time.Duration
	maxConns    int
	maxInflight int
	// globalSem, when non-nil, caps requests in flight across ALL
	// connections (see SetMaxInflightTotal) — the knob that models a
	// shard process of fixed capacity in the E20 scaling sweep.
	globalSem chan struct{}
	// serviceTime is a per-request execution-time floor (see
	// SetServiceTime); zero disables it.
	serviceTime time.Duration
	maxTotal    int
	closeOnce   sync.Once
	refused     atomic.Uint64
	corrupt     atomic.Uint64 // requests answered with statusCorrupt

	// reqsInflight counts requests dispatched and not yet answered,
	// across all connections; Shutdown drains it.
	reqsInflight atomic.Int64

	logf func(format string, args ...any)
}

// tokenRingSize bounds the commit-token dedup memory. A client
// resolves commit uncertainty immediately after reconnecting, so only
// the last few commits ever need to be recognized; 4096 leaves orders
// of magnitude of slack.
const tokenRingSize = 4096

// rootsVersionKey is the pseudo-page whose version covers the root
// directory, so root changes participate in optimistic validation.
const rootsVersionKey = page.ID(0)

// abortRingSize bounds the server's memory of abort decisions. An
// in-doubt participant polls its coordinator within a resolver tick or
// two, so only recent aborts ever need to be answered; an abort that
// ages out leaves the poller waiting (safe) rather than guessing.
const abortRingSize = 1024

// prepEntry is one transaction in the prepared-but-undecided state.
// locked is the full footprint (reads, writes, frees, root key) other
// transactions must not invalidate while this one is in doubt; writes
// is the write set alone, which a new prepare's reads must also avoid.
// A recovered entry (rebuilt from the store's WAL after a restart) has
// locked == nil — its read set is unrecoverable, so it conflicts with
// everything until the resolver decides it.
type prepEntry struct {
	at           time.Time
	req          *commitReq // live prepares only; nil after recovery
	writeIDs     []page.ID
	freeIDs      []page.ID
	rootsTouched bool
	locked       map[page.ID]struct{}
	writes       map[page.ID]struct{}
}

// twoPhaseStore is the optional store capability backing durable
// prepares: Prepare stages a write set behind a WAL barrier without
// applying it, DecidePrepared applies or durably aborts it. A space
// without it (a fault-injection wrapper, say) still supports 2PC with
// memory-only prepares — durable across nothing, but correct while the
// process lives.
type twoPhaseStore interface {
	Prepare(token uint64, images []store.PageImage, roots []store.RootUpdate, frees []page.ID) error
	DecidePrepared(token uint64, commit bool) error
}

// recoveredTwoPhase is the store capability a restarted server seeds
// its 2PC memory from: tokens of applied commits, durable abort
// decisions, and transactions still in doubt.
type recoveredTwoPhase interface {
	RecoveredTokens() []uint64
	RecoveredAborts() []uint64
	PreparedTxns() []*store.PreparedTxn
}

// commitJob is one queued commit request and the channel its dispatch
// goroutine blocks on until a leader's flush decides it.
type commitJob struct {
	req  *commitReq
	resp chan commitResult
}

// commitResult is the outcome of one queued commit: the server commit
// sequence after it applied (echoed to the client as its new
// snapshot), a validation conflict, or a hard error.
type commitResult struct {
	seq      uint64
	conflict bool
	err      error
}

// tokenCommitter is the optional store capability a group-commit
// leader uses to stamp the batch's transaction tokens into the WAL's
// commit barrier. A space without it (a fault-injection wrapper, say)
// still commits the batch atomically under a plain Commit.
type tokenCommitter interface {
	CommitTokens(tokens []uint64) error
}

// NewServer wraps an open page space. The caller keeps ownership and
// closes it after the server stops. Taking the Space interface (rather
// than *store.Store) lets tests interpose fault injection between the
// server and its storage; a space that additionally offers a committed
// ReadView (as *store.Store does) gets the parallel fetch path.
func NewServer(st store.Space) *Server {
	s := &Server{
		st:       st,
		versions: make(map[page.ID]uint64),
		conns:    make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
		tokens:   make(map[uint64]struct{}),
		prepared: make(map[uint64]*prepEntry),
		abortedT: make(map[uint64]struct{}),
		logf:     func(string, ...any) {},
	}
	if v, ok := st.(interface{ ReadView() *store.ReadView }); ok {
		s.view = v.ReadView()
	}
	if sq, ok := st.(interface{ Seq() uint64 }); ok {
		s.verBase = sq.Seq() << 16
		s.commitSeq.Store(s.verBase)
	}
	if rp, ok := st.(recoveredTwoPhase); ok {
		// Seed the dedup ring and abort memory from what recovery
		// replayed, so a commit or decide resent across our restart is
		// recognized instead of reapplied; rebuild the in-doubt entries
		// so their footprints stay interlocked until the resolver (or
		// the coordinator's client) decides them.
		for _, tok := range rp.RecoveredTokens() {
			s.recordTokenLocked(tok)
		}
		for _, tok := range rp.RecoveredAborts() {
			s.recordAbortLocked(tok)
		}
		for _, pt := range rp.PreparedTxns() {
			e := &prepEntry{at: time.Now(), rootsTouched: len(pt.Roots) > 0}
			for _, pi := range pt.Images {
				e.writeIDs = append(e.writeIDs, pi.ID)
			}
			e.freeIDs = append([]page.ID(nil), pt.Frees...)
			s.prepared[pt.Token] = e
		}
	}
	return s
}

// SetLogf installs a logger for connection-level errors (the default
// discards them; cmd/hyperserver passes log.Printf).
func (s *Server) SetLogf(f func(format string, args ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	s.logf = f
}

// SetIdleTimeout bounds how long a connection may sit idle between
// requests before the server reaps it (zero, the default, means
// forever). Must be set before Serve.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idleTimeout = d }

// SetMaxConns caps concurrent client connections; excess connections
// are refused with a "server busy" error frame and closed (zero, the
// default, means unlimited). Must be set before Serve.
func (s *Server) SetMaxConns(n int) { s.maxConns = n }

// SetMaxInflight caps how many requests one connection may have
// dispatched concurrently (zero, the default, means unlimited). Excess
// requests are not refused: the connection's read loop simply stops
// pulling frames until a slot frees, so the cap backpressures through
// TCP instead of failing work. Must be set before Serve.
func (s *Server) SetMaxInflight(n int) { s.maxInflight = n }

// SetMaxInflightTotal caps how many requests the whole server may have
// dispatched concurrently, across every connection (zero, the default,
// means unlimited). Like SetMaxInflight, excess requests backpressure
// through TCP rather than failing: read loops stop pulling frames until
// a slot frees. This is the knob that models a shard process of fixed
// service capacity — per-connection caps cannot, because adding
// connections adds capacity. Must be set before Serve.
func (s *Server) SetMaxInflightTotal(n int) { s.maxTotal = n }

// SetServiceTime gives every request a fixed minimum execution time
// while it occupies its inflight slots. Real page servers spend CPU
// and disk time per request; on a loopback test rig execution is
// near-instant, so the inflight caps never bind and a "capacity"
// experiment measures only the wire. With a service time d and a
// server-wide cap of n (SetMaxInflightTotal), the shard's capacity is
// n/d requests per second — the fixed-capacity process model the E20
// scaling sweep needs. Zero (the default) disables the floor. Must be
// set before Serve.
func (s *Server) SetServiceTime(d time.Duration) { s.serviceTime = d }

// SetShardID declares this server's position in the cluster routing
// table (default 0 — a standalone server is shard 0 of 1). The shard ID
// of a commit token's coordinator is carried in the token's top byte,
// so the in-doubt resolver compares against this to tell its own
// coordinated transactions from ones it must poll a peer for. Must be
// set before Serve.
func (s *Server) SetShardID(id int) { s.shardID = id }

// SetRouteTable installs the routing table this server hands to
// clients via opRouteTable: the table epoch and the shard addresses in
// shard-ID order. Safe to call at runtime; clients adopt a new table
// only when its epoch is higher than the one they hold.
func (s *Server) SetRouteTable(epoch uint64, addrs []string) {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	s.routeEpoch = epoch
	s.routeAddrs = append([]string(nil), addrs...)
}

// SetResolver tunes the in-doubt resolver: how often it scans the
// prepared table, and how old an undecided entry must be before it is
// resolved (polling the coordinator for a peer's transaction, presuming
// abort for one of our own). Zero keeps a default (500ms, 5s). Must be
// set before Serve.
func (s *Server) SetResolver(every, age time.Duration) {
	s.resolveEvery = every
	s.prepareAge = age
}

// CrossCommitStats reports the two-phase commit counters: prepares
// accepted, cross-shard transactions committed and aborted here, and
// in-doubt entries the background resolver decided.
func (s *Server) CrossCommitStats() (prepares, commits, aborts, resolved uint64) {
	return s.crossPrepares.Load(), s.crossCommits.Load(), s.crossAborts.Load(), s.resolvedInDoubt.Load()
}

// PreparedCount reports how many transactions are currently in the
// prepared-but-undecided state — zero once every in-doubt transaction
// has been resolved.
func (s *Server) PreparedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.prepared)
}

// SetGroupCommit toggles commit batching. Enabled (the default),
// concurrent commits queue behind a leader that flushes them under one
// fsync; disabled, every commit fsyncs alone — the serialized baseline
// the E19 experiment measures against. Must be set before Serve.
func (s *Server) SetGroupCommit(enabled bool) { s.noGroup = !enabled }

// GroupCommitStats reports commit batching counters: store flushes
// serving commits, flushes that carried more than one transaction, the
// total transactions that shared a flush, the largest batch, and
// commits validated by the snapshot fast path (read-set scan skipped).
func (s *Server) GroupCommitStats() (flushes, batches, grouped, maxBatch, fastPath uint64) {
	return s.gcFlushes.Load(), s.gcBatches.Load(), s.gcGrouped.Load(), s.gcMax.Load(), s.fastOK.Load()
}

// Serve starts accepting connections on ln and returns immediately.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	if s.maxTotal > 0 && s.globalSem == nil {
		s.globalSem = make(chan struct{}, s.maxTotal)
	}
	s.resolverOnce.Do(func() {
		s.wg.Add(1)
		go s.resolveLoop()
	})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-s.closed:
					return
				default:
					s.logf("remote: accept: %v", err)
					return
				}
			}
			if !s.admit(conn) {
				continue
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.handle(conn)
			}()
		}
	}()
}

// admit registers the connection, or refuses it cleanly when the
// server is at its connection limit.
func (s *Server) admit(conn net.Conn) bool {
	s.connMu.Lock()
	if s.maxConns > 0 && len(s.conns) >= s.maxConns {
		s.refused.Add(1)
		s.connMu.Unlock()
		s.logf("remote: refusing %s: connection limit (%d) reached", conn.RemoteAddr(), s.maxConns)
		// A well-formed refusal frame on the reserved connection-level
		// request ID, so the client fails every request it has pending
		// on this connection with a ServerError instead of a silent
		// close.
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		writeFrame(conn, s.respFrame(connReqID, statusError, []byte("server busy")))
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	return true
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln.Addr(), nil
}

// Close stops accepting connections, disconnects active clients
// immediately and waits for handlers to finish. Idempotent.
func (s *Server) Close() error {
	return s.Shutdown(0)
}

// Shutdown stops the server gracefully: the listener closes (new
// connections are refused by the OS), requests already dispatched get
// up to timeout to drain and have their responses written, and only
// then are the remaining connections closed. Shutdown(0) degrades to
// an immediate Close. Idempotent and safe to call concurrently — the
// first caller wins and later calls return after it finishes.
func (s *Server) Shutdown(timeout time.Duration) error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.ln != nil {
			err = s.ln.Close()
		}
		if timeout > 0 {
			deadline := time.Now().Add(timeout)
			for s.reqsInflight.Load() > 0 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
		}
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
	})
	s.wg.Wait()
	return err
}

// Stats reports commit/abort/fetch counters. All three are atomic, so
// Stats never queues behind an in-flight commit or fetch.
func (s *Server) Stats() (commits, aborts, fetches uint64) {
	return s.commits.Load(), s.aborts.Load(), s.fetches.Load()
}

// FaultStats reports the fault-tolerance counters: duplicate commits
// absorbed by the token ring, and connections refused at the limit.
func (s *Server) FaultStats() (dupCommits, refused uint64) {
	return s.dupCommits.Load(), s.refused.Load()
}

// CorruptServed reports how many requests were answered with a
// corrupt-page status — each one is a page whose stored image failed
// validation, worth an operator's scrub.
func (s *Server) CorruptServed() uint64 { return s.corrupt.Load() }

// badRequestError marks a failure the client caused (malformed frame,
// unknown opcode) as opposed to a server-side fault. The distinction
// drives both the response status and the logging: a bad request is
// the client's bug, a server fault is ours.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badReq(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// handle runs one multiplexed connection: the read loop pulls request
// frames and dispatches each on its own goroutine; responses — possibly
// out of order — funnel through respCh into a single writer goroutine,
// which is the only thing that touches the connection's write side.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()

	respCh := make(chan []byte, 32)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		dead := false
		for frame := range respCh {
			if dead {
				continue // drain so dispatchers never block on a dead peer
			}
			if err := writeFrame(conn, frame); err != nil {
				dead = true
				conn.Close() // unblocks the read loop too
				continue
			}
			if s.idleTimeout > 0 {
				// A connection receiving responses is not idle, even if
				// the client is quiet while it waits on them.
				conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
			}
		}
	}()

	var reqWG sync.WaitGroup
	var sem chan struct{}
	if s.maxInflight > 0 {
		sem = make(chan struct{}, s.maxInflight)
	}
	for {
		if s.idleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		req, err := readFrame(conn)
		if err != nil {
			break // client went away (or idled out)
		}
		if len(req) < muxHeaderLen {
			// No request ID to echo: answer on the connection-level ID.
			respCh <- s.respFrame(connReqID, statusBadRequest, []byte("remote: frame too short for a request ID"))
			continue
		}
		if sem != nil {
			sem <- struct{}{}
		}
		if s.globalSem != nil {
			// The server-wide capacity gate: like the per-connection
			// sem, it blocks the read loop (backpressure through TCP)
			// rather than refusing the request.
			s.globalSem <- struct{}{}
		}
		s.reqsInflight.Add(1)
		reqWG.Add(1)
		go func(req []byte) {
			defer reqWG.Done()
			defer s.reqsInflight.Add(-1)
			if sem != nil {
				defer func() { <-sem }()
			}
			if s.globalSem != nil {
				defer func() { <-s.globalSem }()
			}
			id := frameID(req)
			if s.serviceTime > 0 {
				time.Sleep(s.serviceTime)
			}
			resp, conflict, rerr := s.dispatch(req[muxHeaderLen:])
			switch {
			case conflict:
				respCh <- s.respFrame(id, statusConflict, nil)
			case rerr != nil:
				respCh <- s.errFrame(conn.RemoteAddr(), id, rerr)
			default:
				respCh <- s.respFrame(id, statusOK, resp)
			}
		}(req)
	}
	reqWG.Wait() // in-flight requests still get their answers written
	close(respCh)
	<-writerDone
}

// respFrame assembles one response frame: request ID, status byte,
// payload. The server's single appendFrameID site — the wiresym
// analyzer pins the framing encoder here so it cannot drift from the
// client's decoder.
func (s *Server) respFrame(id uint64, status byte, payload []byte) []byte {
	b := make([]byte, 0, muxHeaderLen+1+len(payload))
	b = appendFrameID(b, id)
	b = append(b, status)
	return append(b, payload...)
}

// dispatch executes one request frame. A panic while executing it is
// confined to the request — the handler recovers, answers with a
// server error, and the connection (and server) live on.
func (s *Server) dispatch(req []byte) (resp []byte, conflict bool, rerr error) {
	defer func() {
		if r := recover(); r != nil {
			resp, conflict = nil, false
			rerr = fmt.Errorf("remote: panic while serving request: %v", r)
		}
	}()
	if len(req) == 0 {
		return nil, false, badReq("remote: empty request")
	}
	switch req[0] {
	case opGetPage:
		resp, rerr = s.getPage(req[1:])
	case opGetPages:
		resp, rerr = s.getPages(req[1:])
	case opGetPath:
		resp, rerr = s.getPath(req[1:])
	case opAlloc:
		resp, rerr = s.alloc(req[1:])
	case opRoots:
		resp, rerr = s.roots()
	case opCommit:
		resp, conflict, rerr = s.commit(req[1:])
	case opPrepare:
		resp, conflict, rerr = s.prepare(req[1:])
	case opDecide:
		resp, conflict, rerr = s.decide(req[1:])
	case opRouteTable:
		resp, rerr = s.routeTableResp()
	case opCommitCheck:
		resp, rerr = s.commitCheck(req[1:])
	case opStats:
		resp, rerr = s.statsResp()
	case opPing:
		resp = nil
	default:
		rerr = badReq("remote: unknown opcode %d", req[0])
	}
	return resp, conflict, rerr
}

// errFrame builds the response frame for a failed request,
// distinguishing client-caused errors (statusBadRequest, the client's
// bug) from server faults (statusError, ours — logged with the peer's
// address so an operator can correlate). Storage corruption gets its
// own status so the client can resurface the typed error: the damage
// is on the server's disk, and the client must report it per page
// rather than retry or fail the connection.
func (s *Server) errFrame(peer net.Addr, id uint64, err error) []byte {
	var br *badRequestError
	if errors.As(err, &br) {
		s.logf("remote: bad request from %s: %v", peer, err)
		return s.respFrame(id, statusBadRequest, []byte(err.Error()))
	}
	var ce *pager.ErrCorruptPage
	if errors.As(err, &ce) {
		s.corrupt.Add(1)
		s.logf("remote: corrupt page served to %s: %v", peer, err)
		return s.respFrame(id, statusCorrupt, appendCorrupt(nil, ce))
	}
	s.logf("remote: server fault serving %s: %v", peer, err)
	return s.respFrame(id, statusError, []byte(err.Error()))
}

// pageVersion reads one version-table entry under the narrow lock.
// Published versions are rebased by verBase so a restart never reuses
// a version a client may still hold.
func (s *Server) pageVersion(id page.ID) uint64 {
	s.versionMu.Lock()
	defer s.versionMu.Unlock()
	return s.verBase + s.versions[id]
}

// fetchPage resolves one page to (version, handle). On the parallel
// path the version is read strictly before the bytes (see versionMu);
// without a read view the caller holds s.mu and order is moot.
func (s *Server) fetchPage(id page.ID) (uint64, store.Handle, error) {
	ver := s.pageVersion(id)
	sp := store.Space(s.st)
	if s.view != nil {
		sp = s.view
	}
	h, err := sp.Get(id)
	if err != nil {
		return 0, nil, err
	}
	s.fetches.Add(1)
	return ver, h, nil
}

func (s *Server) getPage(body []byte) ([]byte, error) {
	if len(body) != 8 {
		return nil, badReq("remote: bad GetPage request")
	}
	id := page.ID(binary.LittleEndian.Uint64(body))
	if s.view == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	ver, h, err := s.fetchPage(id)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	resp := make([]byte, 8+page.Size)
	binary.LittleEndian.PutUint64(resp, ver)
	copy(resp[8:], h.Page().Bytes())
	// Reseal the copy: an in-memory image may predate its first
	// write-out (a freshly allocated page, say), so its stored checksum
	// is not yet meaningful. Sealing here lets the client validate every
	// received image and distinguish transit corruption (refetchable)
	// from server-disk corruption (statusCorrupt above).
	page.SealBytes(resp[8:])
	return resp, nil
}

func (s *Server) getPages(body []byte) ([]byte, error) {
	if len(body) < 4 {
		return nil, badReq("remote: bad GetPages request")
	}
	n := int(binary.LittleEndian.Uint32(body))
	if n > maxBatchPages || len(body) != 4+8*n {
		return nil, badReq("remote: bad GetPages request")
	}
	if s.view == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	resp := make([]byte, n*(8+page.Size))
	off := 0
	for i := 0; i < n; i++ {
		id := page.ID(binary.LittleEndian.Uint64(body[4+8*i:]))
		ver, h, err := s.fetchPage(id)
		if err != nil {
			return nil, fmt.Errorf("remote: GetPages item %d (page %d): %w", i, id, err)
		}
		binary.LittleEndian.PutUint64(resp[off:], ver)
		copy(resp[off+8:], h.Page().Bytes())
		h.Release()
		page.SealBytes(resp[off+8:]) // see getPage
		off += 8 + page.Size
	}
	return resp, nil
}

// getPath walks the B-tree path for a key from the requested page
// down, one fetchPage per page, and ships every page it pinned (see
// opGetPath). Child pointers are cluster-wide IDs; the walk follows
// only children this shard owns, and answers in local IDs.
func (s *Server) getPath(body []byte) ([]byte, error) {
	if len(body) < 8 || len(body)-8 > btree.MaxKey {
		return nil, badReq("remote: bad GetPath request")
	}
	id := page.ID(binary.LittleEndian.Uint64(body))
	key := body[8:]
	if s.view == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	var ids [maxPathPages]page.ID
	var vers [maxPathPages]uint64
	var hs [maxPathPages]store.Handle
	n := 0
	defer func() {
		for _, h := range hs[:n] {
			h.Release()
		}
	}()
	for n < maxPathPages {
		ver, h, err := s.fetchPage(id)
		if err != nil {
			if n == 0 {
				return nil, err
			}
			break // the descent's own fetch of this page reports it
		}
		ids[n], vers[n], hs[n] = id, ver, h
		n++
		child, ok := btree.ChildFor(h.Page(), key)
		if !ok || shardOfID(child) != s.shardID {
			break
		}
		id = localIDOf(child)
	}
	resp := make([]byte, 4+n*pathItemLen)
	binary.LittleEndian.PutUint32(resp, uint32(n))
	for i := 0; i < n; i++ {
		r := resp[4+i*pathItemLen:]
		binary.LittleEndian.PutUint64(r, uint64(ids[i]))
		binary.LittleEndian.PutUint64(r[8:], vers[i])
		copy(r[16:pathItemLen], hs[i].Page().Bytes())
		page.SealBytes(r[16:pathItemLen]) // see getPage
	}
	return resp, nil
}

func (s *Server) alloc(body []byte) ([]byte, error) {
	if len(body) != 1 {
		return nil, badReq("remote: bad Alloc request")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id, h, err := s.st.Alloc(page.Type(body[0]))
	if err != nil {
		return nil, err
	}
	h.Release()
	// Reallocated pages keep their version history, so the client must
	// learn the current version, not assume zero.
	resp := binary.LittleEndian.AppendUint64(nil, uint64(id))
	return binary.LittleEndian.AppendUint64(resp, s.pageVersion(id)), nil
}

func (s *Server) roots() ([]byte, error) {
	resp := make([]byte, 16+8*store.NumRoots)
	if s.view != nil {
		// Commit sequence first, then version, then roots: each read is
		// at least as old as the next, so a commit racing this fetch can
		// only make the client's snapshot conservative (it thinks the
		// state is older than it is and falls back to per-page
		// validation), never optimistic. All slots come from one
		// committed meta snapshot so the directory cannot be torn by a
		// concurrent commit.
		seq := s.commitSeq.Load()
		binary.LittleEndian.PutUint64(resp, s.pageVersion(rootsVersionKey))
		binary.LittleEndian.PutUint64(resp[8:], seq)
		roots := s.view.Roots()
		for i, id := range roots {
			binary.LittleEndian.PutUint64(resp[16+8*i:], uint64(id))
		}
		return resp, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	binary.LittleEndian.PutUint64(resp, s.verBase+s.versions[rootsVersionKey])
	binary.LittleEndian.PutUint64(resp[8:], s.commitSeq.Load())
	for i := 0; i < store.NumRoots; i++ {
		binary.LittleEndian.PutUint64(resp[16+8*i:], uint64(s.st.Root(i)))
	}
	return resp, nil
}

// tokenSeenLocked reports whether a commit token is in the applied
// ring. Callers hold s.mu.
func (s *Server) tokenSeenLocked(tok uint64) bool {
	_, ok := s.tokens[tok]
	return ok
}

// recordTokenLocked remembers an applied commit token, evicting the
// oldest past the ring size. Callers hold s.mu.
func (s *Server) recordTokenLocked(tok uint64) {
	if len(s.tokenLog) >= tokenRingSize {
		delete(s.tokens, s.tokenLog[0])
		s.tokenLog = s.tokenLog[1:]
	}
	s.tokens[tok] = struct{}{}
	s.tokenLog = append(s.tokenLog, tok)
}

func (s *Server) commit(body []byte) (resp []byte, conflict bool, err error) {
	req, err := decodeCommit(body)
	if err != nil {
		return nil, false, badReq("%v", err)
	}
	var r commitResult
	if s.noGroup {
		r = s.commitSerialized(req)
	} else {
		r = s.commitGrouped(req)
	}
	if r.err != nil || r.conflict {
		return nil, r.conflict, r.err
	}
	// The OK payload is the server commit sequence after this
	// transaction applied — the client's new snapshot.
	return binary.LittleEndian.AppendUint64(nil, r.seq), false, nil
}

// commitGrouped queues the request and blocks until a leader's batch
// flush decides it. The first goroutine to find the queue idle becomes
// the leader: it drains whatever has accumulated, runs the whole batch
// under one store commit, and keeps draining until the queue is empty
// before stepping down — so every commit that arrives while a flush is
// in progress rides the next batch instead of fsyncing alone.
func (s *Server) commitGrouped(req *commitReq) commitResult {
	job := &commitJob{req: req, resp: make(chan commitResult, 1)}
	s.gcMu.Lock()
	s.gcQueue = append(s.gcQueue, job)
	if s.gcActive {
		s.gcMu.Unlock()
	} else {
		s.gcActive = true
		for {
			batch := s.gcQueue
			s.gcQueue = nil
			if len(batch) == 0 {
				s.gcActive = false
				s.gcMu.Unlock()
				break
			}
			s.gcMu.Unlock()
			s.commitBatch(batch)
			s.gcMu.Lock()
		}
	}
	return <-job.resp
}

// commitBatch validates and applies a batch of queued transactions in
// arrival order and commits them under a single store flush. Later
// transactions in the batch validate against an overlay of the earlier
// ones' version bumps, so the batch is equivalent to running its
// members serially; the published version table and commitSeq advance
// only after the store commit succeeds, preserving the lost-update
// ordering documented on versionMu.
func (s *Server) commitBatch(batch []*commitJob) {
	s.mu.Lock()
	defer s.mu.Unlock()

	overlay := make(map[page.ID]uint64)
	rootBumps := uint64(0)
	var applied []*commitJob
	var tokens []uint64

	fail := func(err error) {
		// A half-applied write set cannot be peeled back per
		// transaction: drop every uncommitted application (best effort
		// — a plain store offers Abort; a fault wrapper may not) and
		// fail the whole batch. Clients retry with fresh caches.
		if ab, ok := s.st.(interface{ Abort() error }); ok {
			ab.Abort()
		}
		for _, j := range batch {
			select {
			case j.resp <- commitResult{err: err}:
			default: // already answered (dup or conflict)
			}
		}
	}

	for _, job := range batch {
		req := job.req
		// A token we have already applied means the client lost our
		// acknowledgement and resent: answer OK again, apply nothing.
		if req.token != 0 && s.tokenSeenLocked(req.token) {
			s.dupCommits.Add(1)
			job.resp <- commitResult{seq: s.commitSeq.Load()} //hyperlint:allow lockorder -- resp is buffered with capacity 1 and gets exactly one response per job; the send cannot park
			continue
		}
		if s.overlapsPreparedLocked(req, false) || s.staleLocked(req, overlay, rootBumps) {
			s.aborts.Add(1)
			job.resp <- commitResult{conflict: true} //hyperlint:allow lockorder -- resp is buffered with capacity 1 and gets exactly one response per job; the send cannot park
			continue
		}
		if err := s.applyLocked(req); err != nil {
			fail(err)
			return
		}
		for _, w := range req.writes {
			overlay[w.id]++
		}
		for _, id := range req.frees {
			overlay[id]++
		}
		if len(req.roots) > 0 {
			rootBumps++
		}
		if req.token != 0 {
			tokens = append(tokens, req.token)
		}
		applied = append(applied, job)
	}
	if len(applied) == 0 {
		return
	}

	// One store commit — one WAL barrier, one fsync — for the whole
	// batch, carrying every transaction's token so recovery and the
	// store's commit stats see N transactions, not one.
	var cerr error
	if tc, ok := s.st.(tokenCommitter); ok && len(tokens) > 0 {
		cerr = tc.CommitTokens(tokens)
	} else {
		cerr = s.st.Commit()
	}
	if cerr != nil {
		fail(cerr)
		return
	}

	// Versions advance only now that the store has installed the new
	// committed images: a fetch racing this commit pairs the old
	// version with either image — at worst a spurious abort when it
	// validates — whereas bumping before the install could pair a new
	// version with stale bytes, a lost update.
	s.versionMu.Lock()
	for id, n := range overlay {
		s.versions[id] += n
	}
	s.versions[rootsVersionKey] += rootBumps
	s.versionMu.Unlock()
	for _, tok := range tokens {
		s.recordTokenLocked(tok)
	}
	n := uint64(len(applied))
	s.commits.Add(n)
	s.commitSeq.Add(n)
	seq := s.commitSeq.Load()
	s.gcFlushes.Add(1)
	if n > 1 {
		s.gcBatches.Add(1)
		s.gcGrouped.Add(n)
	}
	for {
		m := s.gcMax.Load()
		if n <= m || s.gcMax.CompareAndSwap(m, n) {
			break
		}
	}
	for _, j := range applied {
		j.resp <- commitResult{seq: seq} //hyperlint:allow lockorder -- resp is buffered with capacity 1 and gets exactly one response per job; the send cannot park
	}
}

// staleLocked runs optimistic validation for one transaction: every
// page (and the root directory) the client read must still be at the
// version it saw, counting the version bumps earlier transactions in
// the same batch will publish. When the transaction's snapshot equals
// the current commit sequence and nothing has applied ahead of it in
// the batch, the per-page scan is skipped: the client's caches were
// known-current at that sequence and nothing has committed since.
// Callers hold s.mu.
func (s *Server) staleLocked(req *commitReq, overlay map[page.ID]uint64, rootBumps uint64) bool {
	s.versionMu.Lock()
	defer s.versionMu.Unlock()
	if req.snapshot != 0 && req.snapshot == s.commitSeq.Load() && len(overlay) == 0 && rootBumps == 0 {
		s.fastOK.Add(1)
		return false
	}
	for _, r := range req.reads {
		eff := s.verBase + s.versions[r.id] + overlay[r.id]
		if r.id == rootsVersionKey {
			eff += rootBumps
		}
		if eff != r.version {
			return true
		}
	}
	return false
}

// applyLocked copies one validated transaction's write set, root
// updates and frees into the store's working state (uncommitted).
// Callers hold s.mu.
func (s *Server) applyLocked(req *commitReq) error {
	for _, w := range req.writes {
		h, err := s.st.Get(w.id)
		if err != nil {
			return fmt.Errorf("remote: commit write page %d: %w", w.id, err)
		}
		copy(h.Page().Bytes(), w.image)
		h.MarkDirty()
		h.Release()
	}
	for _, r := range req.roots {
		s.st.SetRoot(r.slot, r.id)
	}
	for _, id := range req.frees {
		if err := s.st.Free(id); err != nil {
			return fmt.Errorf("remote: commit free page %d: %w", id, err)
		}
	}
	return nil
}

// commitSerialized is the pre-group-commit path, kept as the
// measurable baseline (SetGroupCommit(false)): one transaction, one
// store commit, one fsync, all under s.mu end to end.
func (s *Server) commitSerialized(req *commitReq) commitResult {
	s.mu.Lock()
	defer s.mu.Unlock()

	if req.token != 0 && s.tokenSeenLocked(req.token) {
		s.dupCommits.Add(1)
		return commitResult{seq: s.commitSeq.Load()}
	}
	if s.overlapsPreparedLocked(req, false) || s.staleLocked(req, nil, 0) {
		s.aborts.Add(1)
		return commitResult{conflict: true}
	}
	if err := s.applyLocked(req); err != nil {
		if ab, ok := s.st.(interface{ Abort() error }); ok {
			ab.Abort()
		}
		return commitResult{err: err}
	}
	var cerr error
	if tc, ok := s.st.(tokenCommitter); ok && req.token != 0 {
		cerr = tc.CommitTokens([]uint64{req.token})
	} else {
		cerr = s.st.Commit()
	}
	if cerr != nil {
		return commitResult{err: cerr}
	}
	s.versionMu.Lock()
	for _, w := range req.writes {
		s.versions[w.id]++
	}
	if len(req.roots) > 0 {
		s.versions[rootsVersionKey]++
	}
	for _, id := range req.frees {
		s.versions[id]++
	}
	s.versionMu.Unlock()
	if req.token != 0 {
		s.recordTokenLocked(req.token)
	}
	s.commits.Add(1)
	s.commitSeq.Add(1)
	s.gcFlushes.Add(1)
	return commitResult{seq: s.commitSeq.Load()}
}

// commitCheck answers what is known about a commit token: committed,
// aborted, or unknown. The first is the resolution step for a client
// whose connection died mid-commit; all three serve an in-doubt 2PC
// participant polling the coordinator. Unknown covers both "never
// heard of it" and "prepared but undecided" — a token that aged out of
// every ring also answers unknown, because guessing aborted for a
// forgotten committed token would let a participant drop applied
// writes. The poller keeps waiting; the coordinator's own resolver
// timeout turns a genuinely dead transaction into a durable abort it
// can report.
func (s *Server) commitCheck(body []byte) ([]byte, error) {
	if len(body) != 8 {
		return nil, badReq("remote: bad CommitCheck request")
	}
	tok := binary.LittleEndian.Uint64(body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tokenSeenLocked(tok) {
		return []byte{checkCommitted}, nil
	}
	if _, ok := s.abortedT[tok]; ok {
		return []byte{checkAborted}, nil
	}
	return []byte{checkUnknown}, nil
}

// recordAbortLocked remembers a durable abort decision, evicting the
// oldest past the ring size. Callers hold s.mu (or run before the
// server is shared).
func (s *Server) recordAbortLocked(tok uint64) {
	if tok == 0 {
		return
	}
	if _, ok := s.abortedT[tok]; ok {
		return
	}
	if len(s.abortedLog) >= abortRingSize {
		delete(s.abortedT, s.abortedLog[0])
		s.abortedLog = s.abortedLog[1:]
	}
	s.abortedT[tok] = struct{}{}
	s.abortedLog = append(s.abortedLog, tok)
}

// overlapsPreparedLocked reports whether a request's footprint
// collides with any prepared-but-undecided transaction. Writing,
// freeing or re-rooting anything an in-doubt transaction read or wrote
// must wait for the decision (else a later commit-decision would
// clobber it, or the in-doubt read set would be silently invalidated
// after its validation already passed). A new prepare additionally
// must not read an in-doubt write — its own validation could otherwise
// succeed against bytes that are about to change. A plain commit that
// only reads an in-doubt write target is allowed: it serializes before
// the undecided transaction. Callers hold s.mu.
func (s *Server) overlapsPreparedLocked(req *commitReq, isPrepare bool) bool {
	if len(s.prepared) == 0 {
		return false
	}
	for _, e := range s.prepared {
		if e.locked == nil {
			// Recovered after a restart: the read set did not survive,
			// so the entry conflicts with everything until resolved.
			return true
		}
		for _, w := range req.writes {
			if _, ok := e.locked[w.id]; ok {
				return true
			}
		}
		for _, id := range req.frees {
			if _, ok := e.locked[id]; ok {
				return true
			}
		}
		if len(req.roots) > 0 {
			if _, ok := e.locked[rootsVersionKey]; ok {
				return true
			}
		}
		if isPrepare {
			for _, r := range req.reads {
				if _, ok := e.writes[r.id]; ok {
					return true
				}
			}
		}
	}
	return false
}

// prepare stages one shard's slice of a cross-shard transaction: the
// same payload as a commit, validated the same way (token dedup, the
// prepared-transaction interlock, optimistic read-set validation), but
// on success the write set is forced to the WAL behind a prepare
// barrier and applied nowhere — the transaction is now a yes-vote that
// survives a crash and can only leave the prepared state through
// opDecide (or the in-doubt resolver). Conflict answers are final: the
// client aborts the whole transaction on every shard.
func (s *Server) prepare(body []byte) (resp []byte, conflict bool, rerr error) {
	req, err := decodeCommit(body)
	if err != nil {
		return nil, false, badReq("%v", err)
	}
	if req.token == 0 {
		return nil, false, badReq("remote: prepare requires a commit token")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tokenSeenLocked(req.token) {
		// Already decided commit (a resent prepare after a lost
		// acknowledgement): the yes-vote stands.
		s.dupCommits.Add(1)
		return nil, false, nil
	}
	if _, ok := s.abortedT[req.token]; ok {
		return nil, true, nil // already decided abort
	}
	if _, ok := s.prepared[req.token]; ok {
		return nil, false, nil // idempotent re-prepare
	}
	if s.overlapsPreparedLocked(req, true) || s.staleLocked(req, nil, 0) {
		s.aborts.Add(1)
		return nil, true, nil
	}
	e := &prepEntry{
		at:           time.Now(),
		req:          req,
		rootsTouched: len(req.roots) > 0,
		locked:       make(map[page.ID]struct{}, len(req.reads)+len(req.writes)+len(req.frees)),
		writes:       make(map[page.ID]struct{}, len(req.writes)),
	}
	for _, r := range req.reads {
		e.locked[r.id] = struct{}{}
	}
	for _, w := range req.writes {
		e.locked[w.id] = struct{}{}
		e.writes[w.id] = struct{}{}
		e.writeIDs = append(e.writeIDs, w.id)
	}
	for _, id := range req.frees {
		e.locked[id] = struct{}{}
		e.freeIDs = append(e.freeIDs, id)
	}
	if e.rootsTouched {
		e.locked[rootsVersionKey] = struct{}{}
	}
	if tp, ok := s.st.(twoPhaseStore); ok {
		images := make([]store.PageImage, 0, len(req.writes))
		for _, w := range req.writes {
			img := &page.Page{}
			copy(img.Bytes(), w.image)
			images = append(images, store.PageImage{ID: w.id, Image: img})
		}
		roots := make([]store.RootUpdate, 0, len(req.roots))
		for _, r := range req.roots {
			roots = append(roots, store.RootUpdate{Slot: r.slot, ID: r.id})
		}
		if err := tp.Prepare(req.token, images, roots, req.frees); err != nil {
			return nil, false, err
		}
	}
	s.prepared[req.token] = e
	s.crossPrepares.Add(1)
	return nil, false, nil
}

// decide resolves a prepared transaction: body is token (8 bytes) and
// a commit flag (1 byte). Commit applies the staged write set behind a
// durable decide barrier and answers with the new commit sequence, as
// a plain commit would; abort discards it behind a durable tombstone.
func (s *Server) decide(body []byte) (resp []byte, conflict bool, rerr error) {
	if len(body) != 9 {
		return nil, false, badReq("remote: bad Decide request")
	}
	tok := binary.LittleEndian.Uint64(body)
	commit := body[8] != 0
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decideLocked(tok, commit)
}

// decideLocked is decide's body, shared with the in-doubt resolver.
// Callers hold s.mu.
func (s *Server) decideLocked(tok uint64, commit bool) (resp []byte, conflict bool, rerr error) {
	if !commit {
		// Abort is recorded durably even for a token never prepared
		// here: a coordinator presumes abort for transactions whose
		// client vanished before staging anything, and an in-doubt
		// participant polling later needs the definite answer.
		if s.tokenSeenLocked(tok) {
			return nil, false, fmt.Errorf("remote: decide abort for already-committed transaction %#x", tok)
		}
		if tp, ok := s.st.(twoPhaseStore); ok {
			if err := tp.DecidePrepared(tok, false); err != nil {
				return nil, false, err
			}
		}
		if _, ok := s.prepared[tok]; ok {
			delete(s.prepared, tok)
			s.aborts.Add(1)
		}
		s.recordAbortLocked(tok)
		s.crossAborts.Add(1)
		return nil, false, nil
	}
	if s.tokenSeenLocked(tok) {
		// Resent decide after a lost acknowledgement.
		s.dupCommits.Add(1)
		return binary.LittleEndian.AppendUint64(nil, s.commitSeq.Load()), false, nil
	}
	if _, ok := s.abortedT[tok]; ok {
		return nil, true, nil // decided abort already; cannot commit
	}
	e := s.prepared[tok]
	if e == nil {
		return nil, false, fmt.Errorf("remote: decide commit for unknown transaction %#x", tok)
	}
	if tp, ok := s.st.(twoPhaseStore); ok {
		if err := tp.DecidePrepared(tok, true); err != nil {
			return nil, false, err
		}
	} else {
		// Memory-only prepare (the store offers no 2PC capability):
		// apply the retained request like a plain commit.
		if e.req == nil {
			return nil, false, fmt.Errorf("remote: no staged write set for transaction %#x", tok)
		}
		if err := s.applyLocked(e.req); err != nil {
			if ab, ok := s.st.(interface{ Abort() error }); ok {
				ab.Abort()
			}
			return nil, false, err
		}
		var cerr error
		if tc, ok := s.st.(tokenCommitter); ok {
			cerr = tc.CommitTokens([]uint64{tok})
		} else {
			cerr = s.st.Commit()
		}
		if cerr != nil {
			return nil, false, cerr
		}
	}
	s.versionMu.Lock()
	for _, id := range e.writeIDs {
		s.versions[id]++
	}
	for _, id := range e.freeIDs {
		s.versions[id]++
	}
	if e.rootsTouched {
		s.versions[rootsVersionKey]++
	}
	s.versionMu.Unlock()
	delete(s.prepared, tok)
	s.recordTokenLocked(tok)
	s.commits.Add(1)
	s.commitSeq.Add(1)
	s.crossCommits.Add(1)
	s.gcFlushes.Add(1)
	return binary.LittleEndian.AppendUint64(nil, s.commitSeq.Load()), false, nil
}

// routeTableResp serves the cluster routing table: epoch, shard count,
// then each shard's address in shard-ID order.
func (s *Server) routeTableResp() ([]byte, error) {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	resp := binary.LittleEndian.AppendUint64(nil, s.routeEpoch)
	resp = binary.LittleEndian.AppendUint32(resp, uint32(len(s.routeAddrs)))
	for _, a := range s.routeAddrs {
		resp = binary.LittleEndian.AppendUint16(resp, uint16(len(a)))
		resp = append(resp, a...)
	}
	return resp, nil
}

// resolveLoop periodically resolves prepared transactions stuck in
// doubt — the survivors of a client that died mid-2PC or a shard
// restart. Started by Serve; exits on Close.
func (s *Server) resolveLoop() {
	defer s.wg.Done()
	every := s.resolveEvery
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.resolveInDoubt()
		}
	}
}

// resolveInDoubt decides every prepared entry older than the prepare
// age. A transaction this shard coordinated (the token's top byte
// names us) whose decision never arrived is presumed aborted — the
// tombstone is durable, so every participant polling later learns the
// same answer. A transaction coordinated elsewhere is never guessed
// at: the resolver polls the coordinator via opCommitCheck and applies
// only a definite answer, waiting out unknowns (the coordinator's own
// timeout eventually converts those to durable aborts).
func (s *Server) resolveInDoubt() {
	age := s.prepareAge
	if age <= 0 {
		age = 5 * time.Second
	}
	s.mu.Lock()
	var stale []uint64
	for tok, e := range s.prepared {
		if time.Since(e.at) >= age {
			stale = append(stale, tok)
		}
	}
	s.mu.Unlock()
	for _, tok := range stale {
		coord := int(tok >> shardShift)
		if coord == s.shardID {
			s.mu.Lock()
			if _, still := s.prepared[tok]; still {
				if _, _, err := s.decideLocked(tok, false); err != nil {
					s.logf("remote: resolver: presumed abort of %#x failed: %v", tok, err)
				} else {
					s.resolvedInDoubt.Add(1)
				}
			}
			s.mu.Unlock()
			continue
		}
		addr := s.coordAddr(coord)
		if addr == "" {
			continue
		}
		state, err := s.checkCoordinator(addr, tok)
		if err != nil {
			s.logf("remote: resolver: coordinator %s unreachable for %#x: %v", addr, tok, err)
			continue
		}
		if state != checkCommitted && state != checkAborted {
			continue // still in doubt; keep polling
		}
		s.mu.Lock()
		if _, still := s.prepared[tok]; still {
			if _, _, err := s.decideLocked(tok, state == checkCommitted); err != nil {
				s.logf("remote: resolver: applying decision for %#x failed: %v", tok, err)
			} else {
				s.resolvedInDoubt.Add(1)
			}
		}
		s.mu.Unlock()
	}
}

// coordAddr resolves a shard ID to its address via the routing table.
func (s *Server) coordAddr(shard int) string {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	if shard < 0 || shard >= len(s.routeAddrs) {
		return ""
	}
	return s.routeAddrs[shard]
}

// checkCoordinator asks a peer shard what became of a commit token. A
// short-lived client with a tight budget: the resolver runs again next
// tick, so there is no point retrying hard here.
func (s *Server) checkCoordinator(addr string, tok uint64) (byte, error) {
	c, err := Dial(addr, ClientOptions{
		PoolPages:      16,
		Conns:          1,
		RetryLimit:     -1,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		return checkUnknown, err
	}
	defer c.Close()
	return c.CommitCheck(tok)
}

func (s *Server) statsResp() ([]byte, error) {
	resp := make([]byte, 24)
	binary.LittleEndian.PutUint64(resp[0:], s.commits.Load())
	binary.LittleEndian.PutUint64(resp[8:], s.aborts.Load())
	binary.LittleEndian.PutUint64(resp[16:], s.fetches.Load())
	return resp, nil
}

package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hypermodel/internal/storage/buffer"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/pager"
	"hypermodel/internal/storage/store"
)

// Client is the workstation side of the page-server architecture. It
// satisfies the backends' Space interface: pages are cached in a local
// buffer pool, misses are fetched from the server, and Commit ships
// the transaction's read set (for optimistic validation) and write set
// to the server atomically.
//
// The transport is multiplexed: every request carries a 64-bit ID, so
// many requests ride one connection concurrently and responses return
// in whatever order the server finishes them. Requests spread over a
// small connection pool (ClientOptions.Conns); each pooled connection
// runs a demultiplexing core (see muxConn) with one writer and one
// reader goroutine. Session state — the page cache, version table and
// read set — stays under one mutex, but that mutex is released across
// page-fetch round trips, so concurrent Gets from many goroutines
// pipeline over the pool instead of queueing behind each other.
//
// The client survives a flaky network. Transport failures on
// idempotent requests (page fetches, roots, stats) redial with capped
// exponential backoff and resend; a failure with a commit in flight is
// resolved through the commit token (see Commit) so a transaction is
// applied at most once. A dead connection drains: every request in
// flight on it fails with the same cause and retries (or surfaces)
// independently. Reconnecting invalidates the session's cached clean
// pages — they may be stale by the time the connection is back — while
// dirty pages stay resident: under the no-steal policy they exist
// nowhere else, and the read set still guards their validity at commit
// time.
type Client struct {
	// mu guards session state: the pool, version table, read set,
	// transaction bookkeeping and the root directory. It is never held
	// across conn I/O on the fetch path — fetches run on the wire
	// layer below and re-acquire mu to install their results.
	mu       sync.Mutex
	pool     *buffer.Pool
	versions map[page.ID]uint64 // version of each cached page as fetched
	readSet  map[page.ID]uint64 // pages read since the last commit
	frees    []page.ID

	addr string
	opts ClientOptions

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter and commit tokens

	closed   atomic.Bool
	closedCh chan struct{}

	// slots is the connection pool; next is the round-robin cursor.
	slots []*connSlot
	next  atomic.Uint64

	// sessionGen is bumped by every successful redial. The wire layer
	// cannot take c.mu, so session invalidation is reconciled lazily:
	// ops compare seenGen (under mu) against sessionGen and drop clean
	// cached state when a reconnect happened since they last looked.
	sessionGen atomic.Uint64
	seenGen    uint64 // guarded by mu

	roots      [store.NumRoots]page.ID
	rootsVer   uint64
	rootsRead  bool
	rootsDirty map[int]page.ID

	// snapSeq is the server commit sequence the session's caches are
	// known-current as of: every cached page version reflects the state
	// at that sequence (or newer, fetched while the sequence stood).
	// Sent with every commit so the server can skip per-page read-set
	// validation when nothing has committed since. Established by the
	// roots fetch (which only runs on an empty cache) and advanced by a
	// commit acknowledgement only when this session's transaction was
	// the sole one applied since (ack seq == snapSeq+1) — a bigger jump
	// means other transactions landed, possibly touching pages this
	// session still caches, so the fast path is disabled (zero) until
	// the next cache reset. Guarded by mu.
	snapSeq uint64

	// batchOK clears when the server refuses opGetPages; the client
	// then degrades to per-page fetches for the rest of its life.
	batchOK atomic.Bool

	hits, misses        uint64        // guarded by mu
	commitsOK           atomic.Uint64 // transactions acknowledged by the server
	conflicts           atomic.Uint64 // commits aborted by optimistic validation
	fetches             atomic.Uint64
	frames, batchFrames atomic.Uint64
	reconnects          atomic.Uint64
	retries             atomic.Uint64
	downgrades          atomic.Uint64
	commitChecks        atomic.Uint64
	commitResends       atomic.Uint64
	commitUnknowns      atomic.Uint64
	corruptRefetches    atomic.Uint64

	// Pipelining stats (see InflightStats).
	curInflight  atomic.Int64
	peakInflight atomic.Int64
	queueWaitNs  atomic.Int64
	unknownResps atomic.Uint64
	histMu       sync.Mutex
	hist         map[byte]*opHist
}

// connSlot is one pooled connection endpoint. Its mutex guards only
// the muxConn pointer — dialing happens outside it, and replacing a
// dead connection is effectively single-flight: racing redials detect
// a freshly installed live connection and adopt it instead of
// stampeding the server.
type connSlot struct {
	mu sync.Mutex
	mc *muxConn
}

// ClientOptions configure a workstation client.
type ClientOptions struct {
	// PoolPages is the size of the workstation page cache (default
	// 1024 pages = 4 MiB).
	PoolPages int
	// Conns is the size of the connection pool requests are spread
	// over (default 1). All connections are dialed up front.
	Conns int
	// MaxInflight caps concurrently outstanding requests per pooled
	// connection (0 = unlimited). Conns=1 with MaxInflight=1 restores
	// the strict one-request-per-round-trip discipline of the
	// pre-multiplexed protocol — the E18 baseline.
	MaxInflight int
	// RequestTimeout bounds one request/response round trip. A request
	// that exceeds it fails like any other transport error (and is
	// retried if idempotent); the connection it was riding is retired
	// and every other request in flight on it fails and recovers too.
	// Zero means no deadline.
	RequestTimeout time.Duration
	// RetryLimit is how many redial-and-resend attempts a failed
	// request gets before its transport error surfaces (default 8;
	// negative disables retries entirely).
	RetryLimit int
	// BackoffBase and BackoffMax shape the capped exponential redial
	// backoff (defaults 2ms and 250ms). Each wait is drawn uniformly
	// from (0, cap] — full jitter, so a herd of reconnecting clients
	// spreads out.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Dialer overrides how connections are made (tests route through
	// fault injectors). Default: net.Dial("tcp", addr).
	Dialer func(addr string) (net.Conn, error)
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.PoolPages <= 0 {
		o.PoolPages = 1024
	}
	if o.Conns <= 0 {
		o.Conns = 1
	}
	switch {
	case o.RetryLimit == 0:
		o.RetryLimit = 8
	case o.RetryLimit < 0:
		o.RetryLimit = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 2 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 250 * time.Millisecond
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return o
}

// RetryStats are the client's fault-tolerance counters.
type RetryStats struct {
	Reconnects     uint64 // connections re-established after a transport failure
	Retries        uint64 // idempotent requests resent after reconnecting
	Downgrades     uint64 // batched fetches degraded to per-page fetches
	CommitChecks   uint64 // commit-token probes after a mid-commit disconnect
	CommitResends  uint64 // commits resent after the server confirmed non-application
	CommitUnknowns uint64 // commits whose outcome could not be re-verified
	// CorruptRefetches counts page images that failed validation on
	// arrival and were fetched again — transit corruption the checksum
	// caught before the bytes could enter the cache.
	CorruptRefetches uint64
}

// Dial connects to a page server — the whole connection pool, up
// front — and loads the root directory.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{
		addr:       addr,
		opts:       opts,
		rng:        rand.New(rand.NewSource(rand.Int63())),
		closedCh:   make(chan struct{}),
		pool:       buffer.New(opts.PoolPages),
		versions:   make(map[page.ID]uint64),
		readSet:    make(map[page.ID]uint64),
		rootsDirty: make(map[int]page.ID),
		hist:       make(map[byte]*opHist),
	}
	c.batchOK.Store(true)
	for i := 0; i < opts.Conns; i++ {
		conn, err := opts.Dialer(addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
		}
		c.slots = append(c.slots, &connSlot{mc: newMuxConn(c, conn)})
	}
	if err := func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.fetchRoots() //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
	}(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// errNotConnected marks the window between a dropped connection and
// the redial; it is transport-class (retriable).
var errNotConnected = errors.New("remote: not connected")

// transient reports whether err is a transport-class failure — the
// request may never have reached the server, so reconnecting and
// retrying can help. Definite outcomes (server replies, conflicts,
// corruption reports, Close) are final: a statusCorrupt answer means
// the page's stored image is damaged on the server's disk, and
// resending the fetch would read the same bad bytes.
func transient(err error) bool {
	if err == nil || errors.Is(err, ErrConflict) || errors.Is(err, ErrClosed) {
		return false
	}
	var ce *pager.ErrCorruptPage
	if errors.As(err, &ce) {
		return false
	}
	var se *ServerError
	return !errors.As(err, &se)
}

// idempotentOp reports whether a request may be resent blindly after a
// transport failure. Fetches and probes are read-only. Alloc is
// retriable too: a lost Alloc response can at worst leave an
// unreferenced page allocated server-side (reclaimable by GC), never
// an inconsistency. Prepare and decide are token-guarded on the server
// (a resent prepare is a no-op vote, a resent decide a duplicate
// acknowledgement), so they resend safely too. Commits are the
// exception — they go through the token-resolution path instead.
func idempotentOp(op byte) bool {
	switch op {
	case opGetPage, opGetPages, opRoots, opPing, opStats, opAlloc,
		opCommitCheck, opPrepare, opDecide, opRouteTable:
		return true
	}
	return false
}

// pickSlot returns the pool slot for the next request (round-robin).
func (c *Client) pickSlot() *connSlot {
	if len(c.slots) == 1 {
		return c.slots[0]
	}
	return c.slots[int(c.next.Add(1))%len(c.slots)]
}

// liveMux returns the slot's live demux core, errNotConnected when the
// slot needs a redial, or ErrClosed after Close.
func (c *Client) liveMux(s *connSlot) (*muxConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mc == nil || s.mc.isDead() {
		return nil, errNotConnected
	}
	return s.mc, nil
}

// doOnce performs one request attempt on the slot's current
// connection, recording in-flight depth and per-opcode latency.
// payload is opcode + body.
func (c *Client) doOnce(s *connSlot, payload []byte) ([]byte, error) {
	m, err := c.liveMux(s)
	if err != nil {
		return nil, err
	}
	c.frames.Add(1)
	depth := c.curInflight.Add(1)
	for {
		p := c.peakInflight.Load()
		if depth <= p || c.peakInflight.CompareAndSwap(p, depth) {
			break
		}
	}
	start := time.Now()
	resp, err := m.do(payload, c.opts.RequestTimeout)
	c.curInflight.Add(-1)
	c.recordOp(payload[0], time.Since(start))
	return resp, err
}

// call performs one request round trip over the pool. Transport
// failures on idempotent requests redial with backoff and resend the
// same payload; non-idempotent requests surface the failure to their
// caller (Commit resolves it through the commit token).
func (c *Client) call(payload []byte) ([]byte, error) {
	s := c.pickSlot()
	resp, err := c.doOnce(s, payload)
	if !transient(err) || !idempotentOp(payload[0]) {
		return resp, err
	}
	return c.retryCall(s, payload, err)
}

// retryCall redials the slot and resends an idempotent payload until
// it gets a definite answer or the retry budget runs out.
func (c *Client) retryCall(s *connSlot, payload []byte, first error) ([]byte, error) {
	lastErr := first
	for attempt := 0; attempt < c.opts.RetryLimit; attempt++ {
		if err := c.redial(s, attempt); err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, err
			}
			lastErr = err
			continue
		}
		c.retries.Add(1)
		resp, err := c.doOnce(s, payload)
		if !transient(err) {
			return resp, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("remote: request failed after %d attempts: %w", c.opts.RetryLimit+1, lastErr)
}

// redial re-establishes one pool slot: capped exponential backoff with
// full jitter, then a fresh connection. Concurrent requests that raced
// into the same dead slot adopt whichever dial lands first instead of
// each opening a connection. A successful dial bumps the session
// generation; session state is invalidated lazily (syncSessionLocked)
// because the wire layer never takes c.mu.
func (c *Client) redial(s *connSlot, attempt int) error {
	if err := c.backoff(attempt); err != nil {
		return err
	}
	s.mu.Lock()
	prev := s.mc
	s.mu.Unlock()
	if prev != nil && !prev.isDead() {
		return nil // another request already redialed while we backed off
	}
	conn, err := c.opts.Dialer(c.addr)
	if err != nil {
		return fmt.Errorf("remote: redial %s: %w", c.addr, err)
	}
	fresh := newMuxConn(c, conn)
	s.mu.Lock()
	if c.closed.Load() {
		s.mu.Unlock()
		fresh.kill(ErrClosed)
		return ErrClosed
	}
	if s.mc != prev && s.mc != nil && !s.mc.isDead() {
		s.mu.Unlock()
		fresh.kill(errNotConnected) // lost the dial race; use the winner's connection
		return nil
	}
	s.mc = fresh
	s.mu.Unlock()
	c.reconnects.Add(1)
	c.sessionGen.Add(1)
	return nil
}

// backoff sleeps before redial attempt n (the first attempt is
// immediate), or returns early when the client closes.
func (c *Client) backoff(attempt int) error {
	if attempt == 0 {
		return nil
	}
	cap := c.opts.BackoffBase << (attempt - 1)
	if cap > c.opts.BackoffMax || cap <= 0 {
		cap = c.opts.BackoffMax
	}
	c.rngMu.Lock()
	d := time.Duration(1 + c.rng.Int63n(int64(cap)))
	c.rngMu.Unlock()
	select {
	case <-time.After(d):
		return nil
	case <-c.closedCh:
		return ErrClosed
	}
}

// syncSessionLocked applies any reconnect-induced invalidation that
// happened since session state was last touched. Ops call it on entry
// and again after any round trip made while holding c.mu, so cached
// clean pages never outlive the connection generation that fetched
// them by more than one reconciliation point.
func (c *Client) syncSessionLocked() {
	gen := c.sessionGen.Load()
	if gen != c.seenGen {
		c.seenGen = gen
		c.invalidateSessionLocked()
	}
}

// invalidateSessionLocked discards session state a reconnect makes
// untrustworthy: clean cached pages (the server may have moved on
// while we were gone) and their version records. Dirty frames and the
// read set survive — the dirty images exist nowhere else under
// no-steal, and the read set is the transaction's evidence, which
// optimistic validation checks at commit regardless of how often the
// connection bounced.
func (c *Client) invalidateSessionLocked() {
	c.pool.DropClean()
	keep := make(map[page.ID]uint64)
	for _, id := range c.pool.ResidentIDs() {
		if v, ok := c.versions[id]; ok {
			keep[id] = v
		}
	}
	c.versions = keep
}

// conflictResetLocked discards the failed transaction — local caches
// are stale — and refreshes the root directory.
func (c *Client) conflictResetLocked() error {
	c.pool.Drop()
	c.versions = make(map[page.ID]uint64)
	c.resetTxnLocked()
	return c.fetchRoots()
}

func (c *Client) fetchRoots() error {
	resp, err := c.call([]byte{opRoots})
	if err != nil {
		return err
	}
	if len(resp) != 16+8*store.NumRoots {
		return errors.New("remote: bad roots response")
	}
	c.syncSessionLocked()
	c.rootsVer = binary.LittleEndian.Uint64(resp)
	// Every fetchRoots call site runs on a freshly emptied cache, so the
	// server's commit sequence is a sound snapshot for the session.
	c.snapSeq = binary.LittleEndian.Uint64(resp[8:])
	for i := 0; i < store.NumRoots; i++ {
		c.roots[i] = page.ID(binary.LittleEndian.Uint64(resp[16+8*i:]))
	}
	return nil
}

// fetchPage fetches one page image from the server. It takes no locks
// of its own, so any number of fetches can be in flight concurrently.
//
// Every received image is validated before it can enter the cache. The
// server seals what it sends, so a failure here means the bytes were
// damaged between the server's memory and ours — a fault the protocol's
// length-checks cannot see — and a refetch reads the server's (good)
// copy again. Refetches share the retry budget; if the image never
// arrives intact, the typed corruption error surfaces with the page
// pinned, exactly like a local checksum failure.
func (c *Client) fetchPage(id page.ID) (uint64, *page.Page, error) {
	req := make([]byte, 0, 9)
	req = append(req, opGetPage)
	req = binary.LittleEndian.AppendUint64(req, uint64(id))
	var lastDetail string
	for attempt := 0; ; attempt++ {
		resp, err := c.call(req)
		if err != nil {
			return 0, nil, err
		}
		if len(resp) != 8+page.Size {
			return 0, nil, errors.New("remote: bad GetPage response")
		}
		img := &page.Page{}
		copy(img.Bytes(), resp[8:])
		if verr := img.Validate(); verr != nil {
			lastDetail = verr.Error()
			if attempt < c.opts.RetryLimit {
				c.corruptRefetches.Add(1)
				continue
			}
			return 0, nil, &pager.ErrCorruptPage{
				ID:     id,
				Detail: "image corrupted in transit: " + lastDetail,
			}
		}
		c.fetches.Add(1)
		return binary.LittleEndian.Uint64(resp), img, nil
	}
}

// checkReadVersionLocked guards snapshot consistency: if the
// transaction already read this page at a different version (the frame
// has since been evicted or invalidated and the server moved on), any
// commit would mix two snapshots while validating only the newer one.
// Surface the conflict immediately, exactly like a commit-time abort.
func (c *Client) checkReadVersionLocked(id page.ID, ver uint64) error {
	prev, ok := c.readSet[id]
	if !ok || prev == ver {
		return nil
	}
	if err := c.conflictResetLocked(); err != nil {
		return err
	}
	return ErrConflict
}

// Get pins the page, fetching it from the server on a cache miss, and
// records it in the transaction's read set. The session mutex is
// released across the server round trip, so concurrent Gets pipeline
// over the connection pool.
func (c *Client) Get(id page.ID) (store.Handle, error) {
	c.mu.Lock()
	c.syncSessionLocked()
	if f := c.pool.Get(id); f != nil {
		c.hits++
		c.readSet[id] = c.versions[id]
		c.mu.Unlock()
		return buffer.HandleOf(f), nil
	}
	c.misses++
	c.mu.Unlock()

	ver, img, err := c.fetchPage(id)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncSessionLocked()
	if f := c.pool.Get(id); f != nil {
		// A concurrent Get or prefetch installed it while we fetched.
		c.readSet[id] = c.versions[id]
		return buffer.HandleOf(f), nil
	}
	if err := c.checkReadVersionLocked(id, ver); err != nil { //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
		return nil, err
	}
	f := c.pool.Insert(id, img)
	c.versions[id] = ver
	c.readSet[id] = ver
	return buffer.HandleOf(f), nil
}

// ReadPage fetches one page image straight from the server, bypassing
// the workstation cache, the version table and the read set. It is the
// measurement primitive for wire-level throughput experiments: every
// call is a real server round trip, so op/s curves measure the
// transport, not the cache.
func (c *Client) ReadPage(id page.ID) (uint64, *page.Page, error) {
	return c.fetchPage(id)
}

// missingOf dedups ids and drops the ones already resident, under the
// session mutex.
func (c *Client) missingOf(ids []page.ID) []page.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncSessionLocked()
	var missing []page.ID
	var seen map[page.ID]bool
	for _, id := range ids {
		if f := c.pool.Get(id); f != nil {
			c.pool.Release(f)
			continue
		}
		if seen == nil {
			seen = make(map[page.ID]bool, len(ids))
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		missing = append(missing, id)
	}
	return missing
}

// Prefetch warms the workstation cache with every listed page that is
// not already resident, fetching all of them from the server in a
// single opGetPages round trip (chunked only past maxBatchPages).
// Prefetched pages enter the pool and the version table but not the
// read set: optimistic validation covers exactly the pages the
// transaction actually reads, and a prefetched page only joins the
// read set when a later Get touches it.
func (c *Client) Prefetch(ids []page.ID) error {
	missing := c.missingOf(ids)
	for len(missing) > 0 {
		n := len(missing)
		if n > maxBatchPages {
			n = maxBatchPages
		}
		if err := c.fetchPages(missing[:n], true); err != nil {
			return err
		}
		missing = missing[n:]
	}
	return nil
}

// PrefetchAsync starts warming the cache with the listed pages and
// returns a wait function reporting the fetch's error. The fetch
// overlaps with whatever the caller does next — closure traversals
// kick off the next frontier's opGetPages before computing on the
// current one. Pages install as responses arrive; a page whose fetched
// version contradicts the transaction's read set is skipped (never
// installed stale), leaving the conflict for the synchronous path to
// surface. The wait function must be called before the transaction
// commits or aborts; calling it more than once is allowed.
func (c *Client) PrefetchAsync(ids []page.ID) (wait func() error) {
	missing := c.missingOf(ids)
	if len(missing) == 0 {
		return func() error { return nil }
	}
	done := make(chan error, 1)
	go func() {
		var err error
		rest := missing
		for len(rest) > 0 && err == nil {
			n := len(rest)
			if n > maxBatchPages {
				n = maxBatchPages
			}
			err = c.fetchPages(rest[:n], false)
			rest = rest[n:]
		}
		done <- err
	}()
	var once sync.Once
	var err error
	return func() error {
		once.Do(func() { err = <-done })
		return err
	}
}

// fetchPages brings one chunk of pages into the pool, batched when the
// server supports it. When the server refuses opGetPages (an older
// server, or a policy rejection) the client records the downgrade and
// degrades gracefully to per-page fetches — slower, but the traversal
// completes. A batch that fails in transit (a corrupt item, or
// transport retries exhausted) degrades only this call. strict
// propagates to installFetchedLocked.
func (c *Client) fetchPages(ids []page.ID, strict bool) error {
	if c.batchOK.Load() {
		err := c.fetchPageBatch(ids, strict)
		var se *ServerError
		var ce *pager.ErrCorruptPage
		switch {
		case err == nil:
			return nil
		case errors.As(err, &ce):
			// One corrupt item poisons a batch response (the server
			// fails the whole frame, and a transit fault fails our
			// validation of it). Degrade this call to per-page fetches —
			// refetching the damaged page alone, installing the rest —
			// without writing off batching for the connection's life.
			c.downgrades.Add(1)
		case errors.As(err, &se):
			c.batchOK.Store(false)
			c.downgrades.Add(1)
		case transient(err) && len(ids) > 1:
			// The frame exhausted its transport retries. Over a lossy
			// link a many-page response gets through far less often
			// than a one-page one, so degrade this call to per-page
			// fetches, each with its own retry budget; against a dead
			// server the first of them fails the same way.
			c.downgrades.Add(1)
		default:
			return err // transport retries exhausted
		}
	}
	for _, id := range ids {
		c.mu.Lock()
		if f := c.pool.Get(id); f != nil {
			c.pool.Release(f)
			c.mu.Unlock()
			continue
		}
		c.mu.Unlock()
		ver, img, err := c.fetchPage(id)
		if err != nil {
			return err
		}
		c.mu.Lock()
		err = c.installFetchedLocked(id, ver, img, strict) //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// fetchPageBatch requests one chunk of pages in a single frame and
// installs them into the pool.
func (c *Client) fetchPageBatch(ids []page.ID, strict bool) error {
	req := make([]byte, 0, 5+8*len(ids))
	req = append(req, opGetPages)
	req = binary.LittleEndian.AppendUint32(req, uint32(len(ids)))
	for _, id := range ids {
		req = binary.LittleEndian.AppendUint64(req, uint64(id))
	}
	c.batchFrames.Add(1)
	resp, err := c.call(req)
	if err != nil {
		return err
	}
	if len(resp) != len(ids)*(8+page.Size) {
		return errors.New("remote: bad GetPages response")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	off := 0
	for _, id := range ids {
		ver := binary.LittleEndian.Uint64(resp[off:])
		img := &page.Page{}
		copy(img.Bytes(), resp[off+8:off+8+page.Size])
		off += 8 + page.Size
		if verr := img.Validate(); verr != nil {
			// One damaged item fails the whole batch with the typed
			// error; fetchPages degrades to per-page fetches, which
			// refetch this page alone and install the rest unharmed.
			return &pager.ErrCorruptPage{
				ID:     id,
				Detail: "image corrupted in transit: " + verr.Error(),
			}
		}
		c.fetches.Add(1)
		if err := c.installFetchedLocked(id, ver, img, strict); err != nil { //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
			return err
		}
	}
	return nil
}

// installFetchedLocked installs one fetched page under c.mu. In strict
// mode a read-set version mismatch surfaces as ErrConflict (the
// synchronous prefetch path, same contract as Get); in async mode the
// page is simply not installed — a background prefetch must never turn
// the cache stale or raise a conflict nobody is positioned to handle.
func (c *Client) installFetchedLocked(id page.ID, ver uint64, img *page.Page, strict bool) error {
	c.syncSessionLocked()
	if f := c.pool.Get(id); f != nil {
		c.pool.Release(f) // already resident (Insert would refuse a duplicate)
		return nil
	}
	if prev, ok := c.readSet[id]; ok && prev != ver {
		if !strict {
			return nil
		}
		if err := c.conflictResetLocked(); err != nil {
			return err
		}
		return ErrConflict
	}
	c.pool.Release(c.pool.Insert(id, img))
	c.versions[id] = ver
	return nil
}

// FrameStats reports how many request frames the client has sent in
// total (retries included) and how many of them were batched page
// fetches (opGetPages).
func (c *Client) FrameStats() (total, batched uint64) {
	return c.frames.Load(), c.batchFrames.Load()
}

// RetryStats reports the client's fault-tolerance counters.
func (c *Client) RetryStats() RetryStats {
	return RetryStats{
		Reconnects:       c.reconnects.Load(),
		Retries:          c.retries.Load(),
		Downgrades:       c.downgrades.Load(),
		CommitChecks:     c.commitChecks.Load(),
		CommitResends:    c.commitResends.Load(),
		CommitUnknowns:   c.commitUnknowns.Load(),
		CorruptRefetches: c.corruptRefetches.Load(),
	}
}

// Alloc asks the server for a fresh page and materializes it dirty in
// the local cache; its contents travel with the next Commit.
func (c *Client) Alloc(t page.Type) (page.ID, store.Handle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.call([]byte{opAlloc, byte(t)}) //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
	if err != nil {
		return page.Invalid, nil, err
	}
	if len(resp) != 16 {
		return page.Invalid, nil, errors.New("remote: bad Alloc response")
	}
	c.syncSessionLocked()
	id := page.ID(binary.LittleEndian.Uint64(resp))
	img := page.New(t)
	f := c.pool.Insert(id, img)
	c.pool.MarkDirty(f)
	c.versions[id] = binary.LittleEndian.Uint64(resp[8:])
	return id, buffer.HandleOf(f), nil
}

// Free queues the page for release at the next Commit.
func (c *Client) Free(id page.ID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pool.Forget(id)
	c.frees = append(c.frees, id)
	return nil
}

// Root reads a root slot from the cached root directory.
func (c *Client) Root(slot int) page.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rootsRead = true
	return c.roots[slot]
}

// SetRoot updates a root slot; the change ships with the next Commit.
func (c *Client) SetRoot(slot int, id page.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roots[slot] = id
	c.rootsDirty[slot] = id
}

// newCommitToken draws a fresh nonzero commit token.
func (c *Client) newCommitToken() uint64 {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	for {
		if tok := c.rng.Uint64(); tok != 0 {
			return tok
		}
	}
}

// buildCommitReqLocked assembles the session's transaction — read set,
// sealed write set (dirty, the pool's DirtyFrames), root updates,
// frees — into a commit request carrying the given token. Shared by
// the single-server commit and the cluster's per-shard prepare, so the
// two paths cannot drift.
func (c *Client) buildCommitReqLocked(token uint64, dirty []*buffer.Frame) *commitReq {
	req := &commitReq{token: token, snapshot: c.snapSeq}
	for id, ver := range c.readSet {
		req.reads = append(req.reads, readEntry{id, ver})
	}
	if c.rootsRead || len(c.rootsDirty) > 0 {
		req.reads = append(req.reads, readEntry{rootsVersionKey, c.rootsVer})
	}
	for _, f := range dirty {
		f.Page.UpdateChecksum()
		req.writes = append(req.writes, writeEntry{f.ID, f.Page.Bytes()})
	}
	for slot, id := range c.rootsDirty {
		req.roots = append(req.roots, rootEntry{slot, id})
	}
	req.frees = c.frees
	return req
}

// txnState reports the session's transaction footprint: whether it has
// read anything (pages or roots) and whether it holds uncommitted
// changes. The cluster commit path uses it to pick participants and a
// coordinator.
func (c *Client) txnState() (reads, writes bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	reads = len(c.readSet) > 0 || c.rootsRead
	writes = c.pool.HasDirty() || len(c.rootsDirty) > 0 || len(c.frees) > 0
	return reads, writes
}

// CommitCheck asks the server what became of a commit token: one of
// checkCommitted, checkAborted or checkUnknown. Exported for the
// in-doubt resolver on a peer shard, which polls a transaction's
// coordinator through an ordinary client.
func (c *Client) CommitCheck(token uint64) (byte, error) {
	c.commitChecks.Add(1)
	resp, err := c.call(appendCommitCheck(make([]byte, 0, 9), token))
	if err != nil {
		return checkUnknown, err
	}
	if len(resp) != 1 {
		return checkUnknown, errors.New("remote: bad CommitCheck response")
	}
	return resp[0], nil
}

// RouteTable fetches the server's cluster routing table: the table
// epoch and the shard addresses in shard-ID order. A standalone server
// answers epoch 0 with no shards.
func (c *Client) RouteTable() (epoch uint64, addrs []string, err error) {
	resp, err := c.call([]byte{opRouteTable})
	if err != nil {
		return 0, nil, err
	}
	return decodeRouteTable(resp)
}

// prepareShard ships the session's transaction as a two-phase-commit
// yes-vote carrying the cluster-wide token. Nothing is applied and the
// local dirty state is retained: the transaction finishes only through
// decideShard. A conflict vote surfaces as ErrConflict without
// resetting local caches — the cluster commit path aborts every shard
// first and resets each session exactly once.
func (c *Client) prepareShard(token uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncSessionLocked()
	payload := encodePrepare(c.buildCommitReqLocked(token, c.pool.DirtyFrames()))
	_, err := c.call(payload) //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
	return err
}

// decideShard delivers the transaction outcome to a prepared shard.
// Commit performs the same success bookkeeping as a single-shard
// Commit (version advances, snapshot tracking, cache stays warm);
// abort discards the transaction and refreshes the session, exactly
// like a conflict.
func (c *Client) decideShard(token uint64, commit bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload := appendDecide(make([]byte, 0, 10), token, commit)
	resp, err := c.call(payload) //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
	c.syncSessionLocked()
	if !commit {
		c.conflicts.Add(1)
		if rerr := c.conflictResetLocked(); rerr != nil { //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
			return rerr
		}
		return err
	}
	if err != nil {
		return err
	}
	for _, f := range c.pool.DirtyFrames() {
		c.versions[f.ID]++
	}
	if len(c.rootsDirty) > 0 {
		c.rootsVer++
	}
	if len(resp) == 8 && c.snapSeq != 0 && binary.LittleEndian.Uint64(resp) == c.snapSeq+1 {
		c.snapSeq++
	} else {
		c.snapSeq = 0
	}
	c.commitsOK.Add(1)
	c.pool.MarkAllClean()
	c.resetTxnLocked()
	return nil
}

// resetSession discards the session's transaction and cached pages
// and refreshes the root directory — the cluster commit path's cleanup
// for a shard whose decision was delivered out of band (by a resolver)
// or not at all.
func (c *Client) resetSession() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conflictResetLocked() //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
}

// Commit ships the transaction to the server. On ErrConflict the local
// caches are already discarded and the root directory refreshed; the
// caller re-runs its transaction.
//
// Commits are never blindly retried. Each carries a unique token the
// server remembers; if the connection dies with the commit in flight,
// the client reconnects and asks whether the token was applied. Only a
// confirmed non-application is resent (and the token still guards the
// resend against races). When certainty cannot be restored within the
// retry budget, the typed ErrCommitUnknown surfaces so the caller can
// re-verify application state itself.
func (c *Client) Commit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncSessionLocked()

	dirty := c.pool.DirtyFrames()
	if len(dirty) == 0 && len(c.rootsDirty) == 0 && len(c.frees) == 0 {
		// Read-only transaction: nothing to validate or apply.
		c.readSet = make(map[page.ID]uint64)
		c.rootsRead = false
		return nil
	}

	req := c.buildCommitReqLocked(c.newCommitToken(), dirty)
	payload := encodeCommit(req)
	s := c.pickSlot()
	resp, err := c.doOnce(s, payload) //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
	if transient(err) {
		resp, err = c.resolveCommit(s, payload, req.token, err) //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
	}
	c.syncSessionLocked()
	if errors.Is(err, ErrConflict) {
		c.conflicts.Add(1)
		if rerr := c.conflictResetLocked(); rerr != nil { //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
			return rerr
		}
		return ErrConflict
	}
	if err != nil {
		return err
	}

	// Success: written pages advanced one version on the server.
	for _, f := range dirty {
		c.versions[f.ID]++
	}
	if len(c.rootsDirty) > 0 {
		c.rootsVer++
	}
	// The acknowledgement carries the server commit sequence after this
	// transaction applied. Adopt it as the session snapshot only when
	// this transaction was the sole one applied since the current
	// snapshot — a bigger jump means other transactions landed, and
	// pages this session still caches may be stale relative to the new
	// sequence, so the fast path stays off until the next cache reset.
	if len(resp) == 8 && c.snapSeq != 0 && binary.LittleEndian.Uint64(resp) == c.snapSeq+1 {
		c.snapSeq++
	} else {
		c.snapSeq = 0
	}
	c.commitsOK.Add(1)
	c.pool.MarkAllClean()
	c.resetTxnLocked()
	return nil
}

// CommitStats reports the session's transaction counters: commits the
// server acknowledged and commits aborted by optimistic validation.
func (c *Client) CommitStats() (commits, conflicts uint64) {
	return c.commitsOK.Load(), c.conflicts.Load()
}

// resolveCommit restores certainty about a commit whose connection
// died mid-flight: reconnect, ask the server whether the token was
// applied, and resend the payload only on a confirmed non-application.
func (c *Client) resolveCommit(s *connSlot, payload []byte, token uint64, cause error) ([]byte, error) {
	for attempt := 0; attempt < c.opts.RetryLimit; attempt++ {
		if err := c.redial(s, attempt); err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, err
			}
			cause = err
			continue
		}
		c.commitChecks.Add(1)
		resp, err := c.doOnce(s, appendCommitCheck(make([]byte, 0, 9), token))
		if transient(err) {
			cause = err
			continue
		}
		if err != nil {
			return nil, err
		}
		if len(resp) != 1 {
			return nil, errors.New("remote: bad CommitCheck response")
		}
		if resp[0] == checkCommitted {
			// The commit landed before the connection died; the lost
			// frame was only the acknowledgement.
			return nil, nil
		}
		// Confirmed not applied: resending is safe, and the token
		// still deduplicates against any race.
		c.commitResends.Add(1)
		resp, err = c.doOnce(s, payload)
		if !transient(err) {
			return resp, err
		}
		cause = err
	}
	c.commitUnknowns.Add(1)
	return nil, fmt.Errorf("%w: %v", ErrCommitUnknown, cause)
}

func (c *Client) resetTxnLocked() {
	c.readSet = make(map[page.ID]uint64)
	c.rootsDirty = make(map[int]page.ID)
	c.rootsRead = false
	c.frees = nil
}

// Abort discards all uncommitted modifications: the entire workstation
// cache is dropped (dirty pages never left the workstation) and the
// root directory refreshed from the server.
func (c *Client) Abort() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pool.Drop()
	c.versions = make(map[page.ID]uint64)
	c.resetTxnLocked()
	return c.fetchRoots() //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
}

// DropCache empties the workstation cache so the next run fetches
// every page from the server (the cold run). It refuses to discard
// uncommitted work and refreshes the root directory.
func (c *Client) DropCache() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pool.HasDirty() {
		return errors.New("remote: DropCache with uncommitted changes")
	}
	c.pool.Drop()
	c.versions = make(map[page.ID]uint64)
	c.readSet = make(map[page.ID]uint64)
	return c.fetchRoots() //hyperlint:allow lockorder -- mu deliberately serializes the session across this round trip; Close never takes Client.mu and unparks the wait via closedCh and the mux kill
}

// CacheStats reports workstation cache hits/misses and server fetches.
func (c *Client) CacheStats() (hits, misses, reads uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.fetches.Load()
}

// Ping checks connectivity.
func (c *Client) Ping() error {
	_, err := c.call([]byte{opPing})
	return err
}

// ServerStats fetches the server's commit/abort/fetch counters.
func (c *Client) ServerStats() (commits, aborts, fetches uint64, err error) {
	resp, err := c.call([]byte{opStats})
	if err != nil {
		return 0, 0, 0, err
	}
	if len(resp) != 24 {
		return 0, 0, 0, errors.New("remote: bad Stats response")
	}
	return binary.LittleEndian.Uint64(resp), binary.LittleEndian.Uint64(resp[8:]), binary.LittleEndian.Uint64(resp[16:]), nil
}

// Close terminates the connection pool. Uncommitted local changes are
// discarded, as when a workstation disconnects. Close is idempotent
// and safe to call concurrently with in-flight requests: every pending
// request on every pooled connection drains promptly with ErrClosed
// instead of being retried.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(c.closedCh)
	for _, s := range c.slots {
		s.mu.Lock()
		mc := s.mc
		s.mc = nil
		s.mu.Unlock()
		if mc != nil {
			mc.kill(ErrClosed)
		}
	}
	return nil
}

var _ store.Space = (*Client)(nil)

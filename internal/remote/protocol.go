// Package remote implements the workstation/server architecture of
// requirement R6: a TCP page server in front of a local page store,
// and a client that satisfies the same Space interface the backends
// run on.
//
// The client keeps its own buffer pool — the "workstation memory" of
// the paper. A cold run (client cache dropped) fetches every page from
// the server, which is precisely the cold-run cost §6's protocol
// isolates; warm runs never leave the workstation.
//
// Concurrency control is optimistic (R8), matching the systems the
// paper measured: clients track the version of every page they read
// and ship their read set with the commit; the server validates that
// no read page changed and applies the write set atomically, or
// rejects with ErrConflict and the client retries with fresh caches
// (R9's cooperating-users model).
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/pager"
)

// Protocol opcodes (client → server).
const (
	opGetPage     = 1 // pageID u64 → version u64, image
	opAlloc       = 2 // pageType u8 → pageID u64
	opRoots       = 3 // → roots version u64, commit seq u64, NumRoots × u64
	opCommit      = 4 // token u64, snapshot u64, read set, write set, root updates, frees → ok (commit seq u64)/conflict
	opDropDead    = 5 //hyperlint:allow opcodes,wiresym -- reserved fault-injection hook, intentionally unwired
	opStats       = 6 // → server stats
	opPing        = 7 // → ok
	opGetPages    = 8 // count u32, count × pageID u64 → count × (version u64, image)
	opCommitCheck = 9 // token u64 → state u8 (commit-uncertainty resolution; see checkUnknown)

	// opGetPath serves a B-tree descent's miss in one round trip: the
	// page asked for, then the pages below it on the path to the leaf
	// that holds key (key is the rest of the body, at most
	// btree.MaxKey bytes). The walk ends at a leaf, at a page that is
	// not an interior B-tree page, at a page it cannot read, after
	// maxPathPages pages, or at a child another shard owns. The first
	// item is always the page asked for; its read errors fail the
	// request exactly as opGetPage's do.
	opGetPath = 13 // root u64, key → count u32, count × (pageID u64, version u64, image)

	// Cluster opcodes. opPrepare carries the exact opCommit payload but
	// stages it durably in the prepared state instead of applying it
	// (the 2PC yes-vote); opDecide resolves a prepared token either
	// way; opRouteTable serves the shard cluster's versioned routing
	// table so clients can discover topology changes from any shard.
	opRouteTable = 10 // → epoch u64, count u32, count × (len u16, addr)
	opPrepare    = 11 // same payload as opCommit → ok/conflict (2PC vote)
	opDecide     = 12 // token u64, commit u8 → ok (commit: seq u64)/conflict
)

// opCommitCheck answer states: the token's transaction is not known to
// have been decided (keep waiting, or resend a plain commit), is
// durably applied, or is durably aborted.
const (
	checkUnknown   = 0
	checkCommitted = 1
	checkAborted   = 2
)

// Response status codes (server → client).
const (
	statusOK         = 0
	statusError      = 1 // server-side fault while executing the request
	statusConflict   = 2
	statusBadRequest = 3 // client-caused: malformed frame or unknown opcode
	statusCorrupt    = 4 // a page image failed validation on the server's disk
)

// ErrConflict is returned by Client.Commit when optimistic validation
// failed: some page the client read was modified by another committed
// transaction. The caller drops its caches and retries.
var ErrConflict = errors.New("remote: optimistic validation failed (read set stale)")

// ErrCommitUnknown is returned by Client.Commit when the connection
// died with a commit in flight and the outcome could not be
// re-verified within the retry budget: the server may or may not have
// applied the transaction. The caller must treat the commit as
// uncertain and re-verify application state before resubmitting —
// blind resubmission could apply the transaction twice.
var ErrCommitUnknown = errors.New("remote: commit outcome unknown (connection lost mid-commit)")

// ErrClosed is returned from operations on a Client after Close.
var ErrClosed = errors.New("remote: client is closed")

// ServerError is a failure reported by the server itself: the request
// crossed the network, the server executed (or rejected) it, and sent
// this answer back. Server errors are definite outcomes and are never
// retried, unlike transport errors.
type ServerError struct {
	// BadRequest marks client-caused failures (malformed frame,
	// unknown opcode) as opposed to server-side faults.
	BadRequest bool
	Msg        string
}

func (e *ServerError) Error() string {
	if e.BadRequest {
		return "remote: server rejected request: " + e.Msg
	}
	return "remote: server error: " + e.Msg
}

// statusCorrupt body: pageID u64 | seq u64 | detail string. The client
// reconstructs the storage layer's typed *pager.ErrCorruptPage from it,
// so errors.As works identically against a local store and a remote
// one. Corruption is a definite server-side answer — the page's stored
// image is damaged, and resending the request cannot help — so the
// decoded error is never retried (see transient).
func appendCorrupt(b []byte, ce *pager.ErrCorruptPage) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(ce.ID))
	b = binary.LittleEndian.AppendUint64(b, ce.Seq)
	return append(b, ce.Detail...)
}

func decodeCorrupt(body []byte) error {
	if len(body) < 16 {
		return &ServerError{Msg: "malformed corrupt-page response"}
	}
	return &pager.ErrCorruptPage{
		ID:     page.ID(binary.LittleEndian.Uint64(body)),
		Seq:    binary.LittleEndian.Uint64(body[8:]),
		Detail: string(body[16:]),
	}
}

const maxFrame = 64 << 20 // sanity bound on frame sizes

// Multiplexed framing: after the u32 length prefix, every frame — in
// both directions — opens with a u64 request ID. The client assigns
// IDs (monotonically per connection, never zero), pumps many requests
// down one connection without waiting, and routes each response back
// to its requester by ID; the server dispatches each request on its
// own goroutine and may answer out of order.
//
// Request:  u32 len | u64 id | u8 opcode | body
// Response: u32 len | u64 id | u8 status | body
//
// ID zero is reserved for connection-level errors the server raises
// outside any request — e.g. the "server busy" refusal at the
// connection limit — which the client treats as fatal to the whole
// connection rather than to one request.
const muxHeaderLen = 8

// connReqID is the reserved request ID for connection-level errors.
const connReqID = 0

// frameID reads the request ID that opens every multiplexed frame.
func frameID(frame []byte) uint64 {
	return binary.LittleEndian.Uint64(frame)
}

// appendFrameID appends the request ID that opens every multiplexed
// frame. The opcodes analyzer holds this (and frameID) to exactly one
// server-side and one client-side call, so the two ends of the framing
// cannot drift apart.
func appendFrameID(b []byte, id uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, id)
}

// maxBatchPages bounds one opGetPages request so its response — one
// version and one page image per id, plus the status byte — always
// fits a frame. Clients chunk larger prefetches.
const maxBatchPages = (maxFrame - 8) / (8 + page.Size)

// maxPathPages bounds one opGetPath walk. The repository's trees are a
// few levels deep; the bound stops a walk through a cyclic or otherwise
// damaged tree.
const maxPathPages = 8

// pathItemLen is the size of one opGetPath answer item: page ID,
// version, image.
const pathItemLen = 16 + page.Size

// writeFrame sends one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame receives one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("remote: oversized frame (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// commitReq is the decoded payload of an opCommit frame.
type commitReq struct {
	// token identifies this commit attempt so a resend after a lost
	// response is recognized and applied at most once. Zero means
	// untokened (no dedup, legacy framing).
	token uint64
	// snapshot is the server commit sequence the transaction's reads
	// are based on (learned from the roots fetch or the previous commit
	// response). If it still equals the server's current sequence at
	// validation time, nothing has committed since the client's caches
	// were known-current, and per-page read-set validation is skipped.
	snapshot uint64
	reads    []readEntry
	writes   []writeEntry
	roots    []rootEntry
	frees    []page.ID
}

type readEntry struct {
	id      page.ID
	version uint64
}

type writeEntry struct {
	id    page.ID
	image []byte // page.Size bytes
}

type rootEntry struct {
	slot int
	id   page.ID
}

func encodeCommit(req *commitReq) []byte {
	size := 1 + 8 + 8 + 4 + 16*len(req.reads) + 4 + len(req.writes)*(8+page.Size) + 4 + 12*len(req.roots) + 4 + 8*len(req.frees)
	return appendCommit(make([]byte, 0, size), req)
}

// appendCommit appends the opCommit payload to b (the client reuses
// one grow-only request buffer across calls).
func appendCommit(b []byte, req *commitReq) []byte {
	b = append(b, opCommit)
	b = binary.LittleEndian.AppendUint64(b, req.token)
	b = binary.LittleEndian.AppendUint64(b, req.snapshot)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.reads)))
	for _, r := range req.reads {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.id))
		b = binary.LittleEndian.AppendUint64(b, r.version)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.writes)))
	for _, w := range req.writes {
		b = binary.LittleEndian.AppendUint64(b, uint64(w.id))
		b = append(b, w.image...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.roots)))
	for _, r := range req.roots {
		b = binary.LittleEndian.AppendUint32(b, uint32(r.slot))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.id))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.frees)))
	for _, id := range req.frees {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	return b
}

func encodePrepare(req *commitReq) []byte {
	size := 1 + 8 + 8 + 4 + 16*len(req.reads) + 4 + len(req.writes)*(8+page.Size) + 4 + 12*len(req.roots) + 4 + 8*len(req.frees)
	return appendPrepare(make([]byte, 0, size), req)
}

// appendPrepare appends the opPrepare payload: field for field the
// opCommit payload (decoded by the same decodeCommit), under the vote
// opcode. The writes are spelled out rather than delegated so the wire
// linter can hold this encoder to the shared decoder script.
func appendPrepare(b []byte, req *commitReq) []byte {
	b = append(b, opPrepare)
	b = binary.LittleEndian.AppendUint64(b, req.token)
	b = binary.LittleEndian.AppendUint64(b, req.snapshot)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.reads)))
	for _, r := range req.reads {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.id))
		b = binary.LittleEndian.AppendUint64(b, r.version)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.writes)))
	for _, w := range req.writes {
		b = binary.LittleEndian.AppendUint64(b, uint64(w.id))
		b = append(b, w.image...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.roots)))
	for _, r := range req.roots {
		b = binary.LittleEndian.AppendUint32(b, uint32(r.slot))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.id))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.frees)))
	for _, id := range req.frees {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	return b
}

// appendDecide appends an opDecide request: the prepared token and the
// coordinator's verdict.
func appendDecide(b []byte, token uint64, commit bool) []byte {
	flag := byte(0)
	if commit {
		flag = 1
	}
	b = append(b, opDecide)
	b = binary.LittleEndian.AppendUint64(b, token)
	b = append(b, flag)
	return b
}

// appendCommitCheck appends an opCommitCheck request — the shared
// encode site for both the client's commit-uncertainty resolution and
// the server's in-doubt resolver polling a coordinator.
func appendCommitCheck(b []byte, token uint64) []byte {
	b = append(b, opCommitCheck)
	b = binary.LittleEndian.AppendUint64(b, token)
	return b
}

// decodeRouteTable decodes an opRouteTable response body.
func decodeRouteTable(body []byte) (epoch uint64, addrs []string, err error) {
	if len(body) < 12 {
		return 0, nil, errors.New("remote: truncated route-table response")
	}
	epoch = binary.LittleEndian.Uint64(body)
	n := binary.LittleEndian.Uint32(body[8:])
	off := 12
	for i := uint32(0); i < n; i++ {
		if off+2 > len(body) {
			return 0, nil, errors.New("remote: truncated route-table response")
		}
		l := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+l > len(body) {
			return 0, nil, errors.New("remote: truncated route-table response")
		}
		addrs = append(addrs, string(body[off:off+l]))
		off += l
	}
	if off != len(body) {
		return 0, nil, errors.New("remote: trailing bytes in route-table response")
	}
	return epoch, addrs, nil
}

func decodeCommit(b []byte) (*commitReq, error) {
	req := &commitReq{}
	off := 0
	u32 := func() (uint32, error) {
		if off+4 > len(b) {
			return 0, errors.New("remote: truncated commit request")
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, nil
	}
	u64 := func() (uint64, error) {
		if off+8 > len(b) {
			return 0, errors.New("remote: truncated commit request")
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, nil
	}
	tok, err := u64()
	if err != nil {
		return nil, err
	}
	req.token = tok
	snap, err := u64()
	if err != nil {
		return nil, err
	}
	req.snapshot = snap
	nr, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nr; i++ {
		id, err := u64()
		if err != nil {
			return nil, err
		}
		ver, err := u64()
		if err != nil {
			return nil, err
		}
		req.reads = append(req.reads, readEntry{page.ID(id), ver})
	}
	nw, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nw; i++ {
		id, err := u64()
		if err != nil {
			return nil, err
		}
		if off+page.Size > len(b) {
			return nil, errors.New("remote: truncated page image")
		}
		req.writes = append(req.writes, writeEntry{page.ID(id), b[off : off+page.Size]})
		off += page.Size
	}
	nro, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nro; i++ {
		slot, err := u32()
		if err != nil {
			return nil, err
		}
		id, err := u64()
		if err != nil {
			return nil, err
		}
		req.roots = append(req.roots, rootEntry{int(slot), page.ID(id)})
	}
	nf, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nf; i++ {
		id, err := u64()
		if err != nil {
			return nil, err
		}
		req.frees = append(req.frees, page.ID(id))
	}
	if off != len(b) {
		return nil, errors.New("remote: trailing bytes in commit request")
	}
	return req, nil
}

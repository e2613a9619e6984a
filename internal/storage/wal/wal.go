// Package wal implements a redo-only write-ahead log.
//
// The store appends the full after-image of every page dirtied by a
// transaction, followed by a commit record, and syncs the log before
// acknowledging the commit. It then writes the same images back to the
// main file at every commit, without syncing it; the file is synced
// only at checkpoint, when the log is truncated. After a crash the log
// is replayed: page images belonging to committed transactions are
// applied to the file, everything after the last valid commit record
// is discarded.
//
// Records are built in place in one reused staging buffer. A page
// record only stages; the barrier that seals a run of records (a
// commit, commit group, prepare or decide) writes them and itself with
// a single WriteAt, so a commit costs one write however many pages it
// logs. Sync, Close, Scan and Replay write whatever is staged first.
// Staging changes the number of writes only: the bytes, their offsets
// and the LSNs are those of one write per record.
//
// Record framing:
//
//	length  uint32   length of body
//	crc     uint32   CRC-32C of body
//	body    []byte   kind byte followed by kind-specific payload
//
// Kinds:
//
//	kindPage   (1): pageID uint64, image [page.Size]byte
//	kindCommit (2): txn sequence number uint64
//	kindGroup  (3): store sequence uint64, count uint32, count × txn
//	               token uint64 — one commit barrier covering every
//	               page image appended since the previous barrier, on
//	               behalf of count batched transactions (group commit).
//	               Recovery applies the batch all-or-nothing, exactly
//	               like kindCommit: either the barrier made it to disk
//	               and every transaction in the group replays, or it
//	               did not and none do.
//	kindPrepare (4): txn token uint64, root-update count uint32,
//	               count × (slot uint32, pageID uint64), free count
//	               uint32, count × pageID uint64 — a two-phase-commit
//	               prepare barrier. The page images appended since the
//	               previous barrier are NOT applied: they are stashed
//	               under the token, together with the record's root
//	               updates and frees, and surface from Replay as an
//	               in-doubt prepared transaction for the upper layer
//	               (the page server) to resolve against the commit
//	               coordinator. The barrier still advances the
//	               committed watermark, so a prepared-but-undecided
//	               transaction survives tail truncation.
//	kindDecide (5): txn token uint64, commit byte — the decision for a
//	               prepared transaction. commit=1 applies any pending
//	               images (the decide flush re-appends the prepared
//	               write set) and records the token as applied;
//	               commit=0 drops the token's stash and records the
//	               abort, so a recovering participant answers "aborted"
//	               instead of staying in doubt.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/vfs"
)

const (
	kindPage    = 1
	kindCommit  = 2
	kindGroup   = 3
	kindPrepare = 4
	kindDecide  = 5

	frameHeader = 8 // length + crc

	// maxFrameBody bounds a plausible frame body: far above any real
	// record (a page record is ~4 KiB, a group record grows 8 bytes per
	// token) but small enough that random garbage in a length field is
	// recognized as corruption rather than a torn tail.
	maxFrameBody = 1 << 24

	// stageLimit bounds the staging buffer: a page append that fills
	// it past this writes the stage early, so a bulk-load commit does
	// not hold a second copy of thousands of pages.
	stageLimit = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WAL is an append-only redo log.
type WAL struct {
	mu      sync.Mutex
	f       vfs.File
	size    int64  // current log size, staged bytes included = next LSN
	stage   []byte // frames appended but not yet written, ending at size
	pending int64  // bytes written but not yet synced
	// Counters are atomic so Stats never blocks behind a commit fsync
	// holding mu.
	syncs   atomic.Uint64
	appends atomic.Uint64
}

// Open opens (or creates) the log file at path on the real
// filesystem. The caller is expected to run Replay before appending
// new records.
func Open(path string) (*WAL, error) {
	return OpenFS(vfs.OS(), path)
}

// OpenFS opens (or creates) the log file at path on fs.
func OpenFS(fs vfs.FS, path string) (*WAL, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: size %s: %w", path, err)
	}
	return &WAL{f: f, size: size}, nil
}

// beginFrame opens a frame of the given kind at the end of the stage.
// The caller appends the rest of the body to w.stage and closes the
// frame with endFrame(off).
func (w *WAL) beginFrame(kind byte) (off int) {
	off = len(w.stage)
	w.stage = append(w.stage, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	return off
}

// endFrame fills in the header of the frame opened at off and returns
// its LSN.
func (w *WAL) endFrame(off int) (lsn uint64) {
	body := w.stage[off+frameHeader:]
	binary.LittleEndian.PutUint32(w.stage[off:], uint32(len(body)))
	binary.LittleEndian.PutUint32(w.stage[off+4:], crc32.Checksum(body, castagnoli))
	lsn = uint64(w.size)
	w.size += int64(frameHeader + len(body))
	w.appends.Add(1)
	return lsn
}

// writeLocked writes the staged frames to the file with one WriteAt.
// On failure the staged frames are discarded and the log size rolls
// back to the end of what was written before, so the next append
// lands there and a retried commit leaves no hole in the log.
func (w *WAL) writeLocked() error {
	if len(w.stage) == 0 {
		return nil
	}
	n := len(w.stage)
	off := w.size - int64(n)
	_, err := w.f.WriteAt(w.stage, off)
	w.stage = w.stage[:0]
	if err != nil {
		w.size = off
		return fmt.Errorf("wal: append: %w", err)
	}
	w.pending += int64(n)
	return nil
}

// barrierLocked closes the barrier frame opened at off, writes it
// together with every record staged before it, and, unless nosync,
// forces the log to stable storage.
func (w *WAL) barrierLocked(off int, nosync bool) (lsn uint64, err error) {
	lsn = w.endFrame(off)
	if nosync {
		err = w.writeLocked()
	} else {
		err = w.syncLocked()
	}
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendPage logs the full after-image of page id and returns the LSN
// of the record. The record is staged, not written: the next barrier
// writes it.
func (w *WAL) AppendPage(id page.ID, p *page.Page) (lsn uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	p.UpdateChecksum()
	off := w.beginFrame(kindPage)
	w.stage = binary.LittleEndian.AppendUint64(w.stage, uint64(id))
	w.stage = append(w.stage, p.Bytes()...)
	lsn = w.endFrame(off)
	if len(w.stage) >= stageLimit {
		if err := w.writeLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// AppendCommit logs a commit record for the given transaction sequence
// number and syncs the log to stable storage.
func (w *WAL) AppendCommit(seq uint64) (lsn uint64, err error) {
	return w.appendCommit(seq, false)
}

// AppendCommitNoSync logs a commit record without forcing the log to
// stable storage. Used by bulk loads that accept losing the tail on a
// crash and checkpoint at the end.
func (w *WAL) AppendCommitNoSync(seq uint64) (lsn uint64, err error) {
	return w.appendCommit(seq, true)
}

func (w *WAL) appendCommit(seq uint64, nosync bool) (lsn uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	off := w.beginFrame(kindCommit)
	w.stage = binary.LittleEndian.AppendUint64(w.stage, seq)
	return w.barrierLocked(off, nosync)
}

// AppendCommitGroup logs one commit barrier covering every page image
// appended since the previous barrier on behalf of len(tokens) batched
// transactions, and (unless nosync) forces the log to stable storage —
// the single fsync a group commit amortizes across the whole batch.
func (w *WAL) AppendCommitGroup(seq uint64, tokens []uint64, nosync bool) (lsn uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	off := w.beginFrame(kindGroup)
	w.stage = binary.LittleEndian.AppendUint64(w.stage, seq)
	w.stage = binary.LittleEndian.AppendUint32(w.stage, uint32(len(tokens)))
	for _, t := range tokens {
		w.stage = binary.LittleEndian.AppendUint64(w.stage, t)
	}
	return w.barrierLocked(off, nosync)
}

// RootUpdate is one named-root assignment carried by a prepare record.
type RootUpdate struct {
	Slot int
	ID   page.ID
}

// AppendPrepare logs a two-phase-commit prepare barrier covering every
// page image appended since the previous barrier, on behalf of the
// transaction identified by token, and forces the log to stable
// storage: a participant must not vote yes on a prepare it could lose.
// The write set travels as the stashed images; the root updates and
// frees — which have no page image of their own — ride in the record.
func (w *WAL) AppendPrepare(token uint64, roots []RootUpdate, frees []page.ID) (lsn uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	off := w.beginFrame(kindPrepare)
	w.stage = binary.LittleEndian.AppendUint64(w.stage, token)
	w.stage = binary.LittleEndian.AppendUint32(w.stage, uint32(len(roots)))
	for _, r := range roots {
		w.stage = binary.LittleEndian.AppendUint32(w.stage, uint32(r.Slot))
		w.stage = binary.LittleEndian.AppendUint64(w.stage, uint64(r.ID))
	}
	w.stage = binary.LittleEndian.AppendUint32(w.stage, uint32(len(frees)))
	for _, id := range frees {
		w.stage = binary.LittleEndian.AppendUint64(w.stage, uint64(id))
	}
	return w.barrierLocked(off, false)
}

// AppendDecide logs the decision for a prepared transaction and forces
// the log to stable storage. With commit set it doubles as a commit
// barrier for any page images appended since the previous barrier (the
// decide flush re-appends the prepared write set); without it nothing
// is applied and the abort is remembered.
func (w *WAL) AppendDecide(token uint64, commit bool) (lsn uint64, err error) {
	return w.appendDecide(token, commit, false)
}

// AppendDecideNoSync is AppendDecide without the fsync, for re-logging
// a batch of remembered decisions after a checkpoint truncation; the
// caller seals the batch with one Sync.
func (w *WAL) AppendDecideNoSync(token uint64, commit bool) (lsn uint64, err error) {
	return w.appendDecide(token, commit, true)
}

func (w *WAL) appendDecide(token uint64, commit, nosync bool) (lsn uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	off := w.beginFrame(kindDecide)
	w.stage = binary.LittleEndian.AppendUint64(w.stage, token)
	var c byte
	if commit {
		c = 1
	}
	w.stage = append(w.stage, c)
	return w.barrierLocked(off, nosync)
}

// syncLocked writes whatever is staged and forces the log to stable
// storage.
func (w *WAL) syncLocked() error {
	if err := w.writeLocked(); err != nil {
		return err
	}
	if w.pending == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	w.pending = 0
	w.syncs.Add(1)
	return nil
}

// Sync writes any staged records and forces the log to stable
// storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// Size reports the current log size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Stats reports the cumulative number of appended records and syncs.
// It takes no lock, so it never waits behind an in-flight commit.
func (w *WAL) Stats() (appends, syncs uint64) {
	return w.appends.Load(), w.syncs.Load()
}

// PageImage is one logged page after-image, surfaced by ReplayFull as
// part of a prepared transaction's stashed write set.
type PageImage struct {
	ID    page.ID
	Image *page.Page
}

// PreparedTxn is a transaction recovered in the prepared-but-undecided
// state: its prepare barrier reached stable storage but no decide
// record followed. The upper layer resolves it against the commit
// coordinator and applies or discards the stash.
type PreparedTxn struct {
	Token  uint64
	Images []PageImage
	Roots  []RootUpdate
	Frees  []page.ID
}

// ReplayResult is what recovery learned beyond the applied images: the
// transactions still in doubt, the tokens of applied commits (for
// exactly-once dedup across a restart), and the tokens durably decided
// abort — all in log order.
type ReplayResult struct {
	Prepared []*PreparedTxn
	Tokens   []uint64
	Aborted  []uint64
}

// Replay scans the log from the beginning and invokes apply for every
// page image that belongs to a committed transaction, in log order.
// Torn or corrupt tails are tolerated: scanning stops at the first
// invalid frame and the log is truncated to the last committed point.
func (w *WAL) Replay(apply func(id page.ID, p *page.Page) error) error {
	_, err := w.ReplayFull(apply)
	return err
}

// ReplayFull is Replay returning the recovery artifacts the two-phase
// commit machinery needs: prepared-but-undecided transactions, applied
// commit tokens, and durable abort decisions.
func (w *WAL) ReplayFull(apply func(id page.ID, p *page.Page) error) (*ReplayResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writeLocked(); err != nil {
		return nil, err
	}

	res := &ReplayResult{}
	stash := make(map[uint64]*PreparedTxn)
	var stashOrder []uint64 // prepare log order, for deterministic re-log
	var pending []PageImage
	var off, committed int64
	for off < w.size {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(io.NewSectionReader(w.f, off, frameHeader), hdr[:]); err != nil {
			break // torn tail
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n <= 0 || off+frameHeader+n > w.size {
			break
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(io.NewSectionReader(w.f, off+frameHeader, n), body); err != nil {
			break
		}
		if crc32.Checksum(body, castagnoli) != want {
			break
		}
		switch body[0] {
		case kindPage:
			if len(body) != 1+8+page.Size {
				return nil, fmt.Errorf("wal: malformed page record at offset %d", off)
			}
			img := &page.Page{}
			copy(img.Bytes(), body[9:])
			pending = append(pending, PageImage{page.ID(binary.LittleEndian.Uint64(body[1:9])), img})
		case kindCommit, kindGroup:
			if body[0] == kindGroup {
				if len(body) < 1+8+4 || len(body) != 1+8+4+8*int(binary.LittleEndian.Uint32(body[9:13])) {
					return nil, fmt.Errorf("wal: malformed group-commit record at offset %d", off)
				}
				count := int(binary.LittleEndian.Uint32(body[9:13]))
				for i := 0; i < count; i++ {
					res.Tokens = append(res.Tokens, binary.LittleEndian.Uint64(body[13+8*i:]))
				}
			}
			for _, pi := range pending {
				if err := apply(pi.ID, pi.Image); err != nil {
					return nil, fmt.Errorf("wal: replay apply page %d: %w", pi.ID, err)
				}
			}
			pending = nil
			committed = off + frameHeader + n
		case kindPrepare:
			pt, err := parsePrepare(body)
			if err != nil {
				return nil, fmt.Errorf("wal: %w at offset %d", err, off)
			}
			// The images since the last barrier are the prepared write
			// set: stashed, not applied — the decision is not ours to
			// take. The barrier still advances the committed watermark so
			// the in-doubt state survives tail truncation.
			pt.Images = pending
			pending = nil
			if _, seen := stash[pt.Token]; !seen {
				stashOrder = append(stashOrder, pt.Token)
			}
			stash[pt.Token] = pt
			committed = off + frameHeader + n
		case kindDecide:
			if len(body) != 1+8+1 {
				return nil, fmt.Errorf("wal: malformed decide record at offset %d", off)
			}
			tok := binary.LittleEndian.Uint64(body[1:9])
			if body[9] == 1 {
				// Commit: the decide flush re-appended the write set, so
				// the stash and the pending images carry the same bytes —
				// apply both, last writer wins.
				if pt := stash[tok]; pt != nil {
					pending = append(pt.Images, pending...)
				}
				for _, pi := range pending {
					if err := apply(pi.ID, pi.Image); err != nil {
						return nil, fmt.Errorf("wal: replay apply page %d: %w", pi.ID, err)
					}
				}
				res.Tokens = append(res.Tokens, tok)
			} else {
				// Abort: the stashed write set (and any images appended
				// since the last barrier) belonged to the aborted txn.
				res.Aborted = append(res.Aborted, tok)
			}
			pending = nil
			delete(stash, tok)
			committed = off + frameHeader + n
		default:
			return nil, fmt.Errorf("wal: unknown record kind %d at offset %d", body[0], off)
		}
		off += frameHeader + n
	}
	// Drop any uncommitted or torn tail.
	if committed < w.size {
		if err := w.f.Truncate(committed); err != nil {
			return nil, fmt.Errorf("wal: truncate tail: %w", err)
		}
		w.size = committed
	}
	// Surface the still-undecided transactions in log order.
	for _, tok := range stashOrder {
		if pt, ok := stash[tok]; ok {
			res.Prepared = append(res.Prepared, pt)
		}
	}
	return res, nil
}

// parsePrepare decodes a kindPrepare body (sans the stashed images,
// which the caller collects from the preceding page records).
func parsePrepare(body []byte) (*PreparedTxn, error) {
	if len(body) < 1+8+4 {
		return nil, errors.New("wal: malformed prepare record")
	}
	pt := &PreparedTxn{Token: binary.LittleEndian.Uint64(body[1:9])}
	off := 9
	nr := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if len(body) < off+12*nr+4 {
		return nil, errors.New("wal: malformed prepare record")
	}
	for i := 0; i < nr; i++ {
		slot := int(binary.LittleEndian.Uint32(body[off:]))
		id := page.ID(binary.LittleEndian.Uint64(body[off+4:]))
		pt.Roots = append(pt.Roots, RootUpdate{Slot: slot, ID: id})
		off += 12
	}
	nf := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if len(body) != off+8*nf {
		return nil, errors.New("wal: malformed prepare record")
	}
	for i := 0; i < nf; i++ {
		pt.Frees = append(pt.Frees, page.ID(binary.LittleEndian.Uint64(body[off:])))
		off += 8
	}
	return pt, nil
}

// ScanReport summarizes a read-only integrity pass over the log (see
// Scan).
type ScanReport struct {
	// Records is the number of well-formed records scanned, committed
	// or not.
	Records int
	// Commits is the number of commit barriers (kindCommit, kindGroup
	// or a commit-decide) among them.
	Commits int
	// Prepares is the number of two-phase-commit prepare barriers among
	// them — transactions that were in doubt at the point the log
	// captures.
	Prepares int
	// CommittedBytes is the length of the log prefix covered by the
	// last commit barrier — exactly what Replay would keep.
	CommittedBytes int64
	// TailBytes is the length of the log past that prefix: appended
	// records no barrier covers yet, a torn final frame, or a
	// mid-frame corruption that ended the scan. Recovery discards
	// these bytes by design, so a tail is not damage — Malformed says
	// whether it was cut short by an invalid frame.
	TailBytes int64
	// Malformed reports that the scan stopped at a structurally
	// invalid frame (bad CRC, impossible length, unknown kind) before
	// the physical end of the log.
	Malformed bool
}

// Scan walks the log read-only and reports what Replay would find,
// without applying or truncating anything — the scrub path. Unlike
// Replay it never fails on a damaged log: damage ends the scan and is
// reported in the result. Staged records are written first; if that
// write fails they are dropped (they are past the last barrier, so
// Replay would drop them too) and the scan covers what was written.
func (w *WAL) Scan() ScanReport {
	w.mu.Lock()
	defer w.mu.Unlock()
	_ = w.writeLocked()
	var rep ScanReport
	var off int64
	for off < w.size {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(io.NewSectionReader(w.f, off, frameHeader), hdr[:]); err != nil {
			break
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxFrameBody {
			// No legitimate frame is this large; a torn in-progress
			// frame carries a plausible length. This is garbage.
			rep.Malformed = true
			break
		}
		if n <= 0 || off+frameHeader+n > w.size {
			break
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(io.NewSectionReader(w.f, off+frameHeader, n), body); err != nil {
			break
		}
		if crc32.Checksum(body, castagnoli) != want {
			rep.Malformed = true
			break
		}
		switch body[0] {
		case kindPage:
			if len(body) != 1+8+page.Size {
				rep.Malformed = true
			}
		case kindCommit:
			rep.Commits++
			rep.CommittedBytes = off + frameHeader + n
		case kindGroup:
			if len(body) < 1+8+4 || len(body) != 1+8+4+8*int(binary.LittleEndian.Uint32(body[9:13])) {
				rep.Malformed = true
			} else {
				rep.Commits++
				rep.CommittedBytes = off + frameHeader + n
			}
		case kindPrepare:
			if _, err := parsePrepare(body); err != nil {
				rep.Malformed = true
			} else {
				// A prepare is a barrier: Replay keeps the prefix it
				// covers (the stash must survive truncation).
				rep.Prepares++
				rep.CommittedBytes = off + frameHeader + n
			}
		case kindDecide:
			if len(body) != 1+8+1 {
				rep.Malformed = true
			} else {
				rep.Commits++
				rep.CommittedBytes = off + frameHeader + n
			}
		default:
			rep.Malformed = true
		}
		if rep.Malformed {
			return rep.withTail(w.size)
		}
		rep.Records++
		off += frameHeader + n
	}
	return rep.withTail(w.size)
}

func (r ScanReport) withTail(size int64) ScanReport {
	r.TailBytes = size - r.CommittedBytes
	return r
}

// Truncate discards the entire log (after a checkpoint has made the
// main file durable).
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	w.size = 0
	w.stage = w.stage[:0]
	w.pending = 0
	return nil
}

// Close writes any staged records, syncs and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.syncLocked()
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, os.ErrClosed) {
		return err
	}
	return nil
}

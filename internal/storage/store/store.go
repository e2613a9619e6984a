// Package store provides the transactional page store: a buffer pool
// over a single database file, with redo write-ahead logging, crash
// recovery, a page free list, and a small directory of named roots.
//
// Higher layers (B+trees, slotted record files, the object store)
// operate against the Space interface so that the same code runs over a
// local store or a remote page-server client.
//
// Durability protocol (redo-only, no-steal):
//
//  1. Mutations happen in pooled page images flagged dirty.
//  2. Commit appends every dirty image to the WAL, appends a commit
//     record, and fsyncs the log. Only then are the images written
//     (without fsync) to the main file and marked clean.
//  3. Checkpoint fsyncs the main file and truncates the WAL.
//  4. Recovery at open replays committed WAL images into the main file,
//     repairing any torn write-backs, then truncates the log.
//
// Concurrency model (single writer, many readers):
//
// The store serializes mutation — Alloc, Free, SetRoot, Commit,
// Checkpoint, Abort, Backup, Close — behind one writer mutex, exactly
// as before. Reads no longer queue behind it. Get is safe to call from
// any number of goroutines: the buffer pool's frame table is sharded,
// no lock is held across a disk read on a miss, and a double-miss race
// resolves through GetOrInsert. Concurrent Gets are safe alongside each
// other; running them concurrently with a writer requires ReadView.
//
// ReadView is the concurrent read path proper. Every resident frame
// carries, besides its working image, an immutable committed snapshot
// published with an atomic pointer; commit installs fresh snapshots for
// all dirty frames (and a snapshot of the meta page, from which a view
// resolves roots) inside a seqlock window. A reader therefore never
// observes a torn commit: pages read while the sequence was stable all
// belong to one committed state, and ReadView.Atomically re-runs a
// multi-page operation whose window a commit overlapped. Non-resident
// pages are read from the main file, which is safe because no-steal
// guarantees a page being written back is resident — a reader can miss
// only on pages whose on-disk image is fully committed. (A narrow
// read/write lock still fences reader preads from the commit
// write-back, closing the race where a page becomes resident and dirty
// after a reader's miss but before its pread.)
//
// MVCC version ring (multi-version reads):
//
// Beyond the always-latest ReadView, the store retains the last K
// committed versions (Options.VersionRing). Each commit publishes an
// immutable version entry — the commit's meta snapshot plus the map of
// page images it replaced (before-images) — instead of discarding the
// previous state outright. Snapshot() pins a SnapshotView to the
// current version: the view keeps reading that exact committed state
// while later commits proceed, resolving a page to the before-image
// recorded by the oldest later commit that overwrote it, or to the
// live committed image when no later commit touched it. A view whose
// version has been evicted from the ring fails with ErrSnapshotTooOld.
//
// Group commit:
//
// Concurrent Commit/CommitTokens callers coalesce: the first caller
// becomes the leader, absorbs every request queued behind it, writes
// the combined dirty set plus one commit barrier to the WAL, and
// amortizes a single fsync across the whole batch while the followers
// block on the leader's flush. CommitStats reports how well batching
// is amortizing flushes.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hypermodel/internal/storage/buffer"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/pager"
	"hypermodel/internal/storage/vfs"
	"hypermodel/internal/storage/wal"
)

// NumRoots is the number of named root slots in the meta page.
const NumRoots = 16

// ErrReadOnly is returned by mutating operations on a ReadView.
var ErrReadOnly = errors.New("store: read-only view")

// ErrSnapshotTooOld is returned by a SnapshotView whose pinned version
// has aged out of the version ring: more than Options.VersionRing
// commits have landed since the view was pinned, so the before-images
// needed to reconstruct its state are gone. Re-pin with Snapshot().
var ErrSnapshotTooOld = errors.New("store: snapshot version evicted from the ring")

// ErrCorruptPage is the typed at-rest corruption error every read path
// — Get, ReadView.Get, SnapshotView.Get, recovery, Scrub — surfaces
// when a page's stored image fails validation. Match with errors.As to
// learn which page (and which committed sequence) was damaged.
type ErrCorruptPage = pager.ErrCorruptPage

// Handle is a pinned reference to a cached page.
type Handle interface {
	// Page returns the page image. The image may be mutated only if
	// MarkDirty is called before Release.
	Page() *page.Page
	// MarkDirty flags the page as modified so it is included in the
	// next Commit.
	MarkDirty()
	// Release unpins the page. The handle must not be used afterwards.
	Release()
}

// Space is the page-level storage abstraction consumed by the B+tree,
// slotted-page and object-store layers. *Store implements it locally;
// the remote package implements it over a TCP page server.
type Space interface {
	// Get pins the page with the given ID.
	Get(id page.ID) (Handle, error)
	// Alloc allocates a fresh zeroed page of the given type, pinned and
	// already marked dirty.
	Alloc(t page.Type) (page.ID, Handle, error)
	// Free returns a page to the free list.
	Free(id page.ID) error
	// Root returns the page ID stored in a named root slot, or
	// page.Invalid if the slot is unset.
	Root(slot int) page.ID
	// SetRoot updates a named root slot. The change is durable after
	// the next Commit.
	SetRoot(slot int, id page.ID)
	// Commit makes all modifications since the previous Commit durable.
	Commit() error
}

// Meta page payload layout (after the common page header).
const (
	metaMagicOff    = 0  // [8]byte
	metaVersionOff  = 8  // uint32
	metaFreeHeadOff = 12 // uint64 (page.ID)
	metaSeqOff      = 20 // uint64 commit sequence
	metaRootsOff    = 28 // NumRoots × uint64
)

var metaMagic = [8]byte{'H', 'Y', 'P', 'M', 'O', 'D', 'B', '1'}

const formatVersion = 1

// Options configure a Store.
type Options struct {
	// PoolPages is the buffer pool capacity in pages. Zero selects the
	// default (1024 pages = 4 MiB).
	PoolPages int
	// CheckpointBytes triggers an automatic checkpoint when the WAL
	// grows past this size. Zero selects the default (8 MiB).
	// Negative disables automatic checkpoints.
	CheckpointBytes int64
	// NoSync makes commits skip the WAL fsync. Faster, not crash-safe;
	// used by bulk loads that checkpoint at the end.
	NoSync bool
	// VersionRing is the number of committed versions kept for pinned
	// snapshots (see Snapshot). A SnapshotView stays readable until
	// VersionRing commits have landed after it was pinned. Zero selects
	// the default (8); negative disables retention, so snapshots go
	// stale at the first commit after the pin.
	VersionRing int
	// FS is the filesystem the database and WAL files live on. Nil
	// selects the real filesystem (vfs.OS); tests substitute vfs.NewMem
	// for deterministic no-temp-dir runs or vfs.NewCrash for seeded
	// power-cut and corruption injection.
	FS vfs.FS
	// TokenKeep, when positive, keeps a ring of that many recent
	// applied commit tokens and re-logs it across every checkpoint
	// truncation, so a server restarted over this store still
	// recognizes a resent commit it already applied (exactly-once
	// across crashes). Zero — the default — retains tokens only within
	// one WAL generation, exactly the pre-cluster behavior.
	TokenKeep int
}

func (o *Options) withDefaults() Options {
	out := Options{PoolPages: 1024, CheckpointBytes: 8 << 20, VersionRing: 8, FS: vfs.OS()}
	if o == nil {
		return out
	}
	if o.PoolPages > 0 {
		out.PoolPages = o.PoolPages
	}
	if o.CheckpointBytes != 0 {
		out.CheckpointBytes = o.CheckpointBytes
	}
	if o.VersionRing > 0 {
		out.VersionRing = o.VersionRing
	} else if o.VersionRing < 0 {
		out.VersionRing = 0
	}
	out.NoSync = o.NoSync
	if o.FS != nil {
		out.FS = o.FS
	}
	if o.TokenKeep > 0 {
		out.TokenKeep = o.TokenKeep
	}
	return out
}

// Store is the local implementation of Space.
type Store struct {
	// writeMu serializes the single writer: every mutating operation
	// (Alloc, Free, Commit, Checkpoint, Abort, Backup, DropCache,
	// Close) holds it end to end. Reads never take it.
	writeMu sync.Mutex
	// metaMu guards the live meta page payload (free-list head, roots,
	// metaDirty) so concurrent Root lookups are safe while the writer
	// mutates slots.
	metaMu sync.RWMutex
	// backMu fences reader preads (read side) from the commit
	// write-back (write side); see the package comment.
	backMu sync.RWMutex

	pg   *pager.Pager
	log  *wal.WAL
	pool *buffer.Pool
	opts Options

	meta      *page.Page                // working meta image; always resident, never in the pool
	metaDirty bool                      // guarded by metaMu
	metaSnap  atomic.Pointer[page.Page] // committed meta image for readers

	seq atomic.Uint64 // committed commit sequence number
	// rseq is the seqlock generation: odd while a commit is installing
	// snapshots, bumped to the next even value when the installation is
	// complete. Readers validate multi-page operations against it.
	rseq atomic.Uint64

	// ring holds the last Options.VersionRing committed versions in
	// ascending sequence order, published atomically as an immutable
	// slice inside the commit's seqlock window. Pinned SnapshotViews
	// resolve historical page images against it.
	ring    atomic.Pointer[[]*version]
	ringCap int

	// Group-commit queue: concurrent committers enqueue; the first
	// becomes leader and flushes the whole batch under one fsync.
	gcMu     sync.Mutex
	gcQueue  []*gcWaiter
	gcActive bool

	// Commit batching counters (see CommitStats).
	txnCommits   atomic.Uint64
	flushes      atomic.Uint64
	groupFlushes atomic.Uint64
	groupedTxns  atomic.Uint64
	maxBatch     atomic.Uint64

	closed    bool
	recovered bool // recovery ran at open (for tests/diagnostics)

	// Two-phase commit state (see prepare.go). prepared holds
	// transactions that voted yes but have no decision; keepTokens is
	// the ring of recently applied commit tokens re-logged across
	// checkpoints (Options.TokenKeep); abortRing is the bounded memory
	// of durable abort decisions. All guarded by writeMu; the recov*
	// slices are written once at Open and read-only afterwards.
	prepared    map[uint64]*PreparedTxn
	prepOrder   []uint64
	keepTokens  []uint64
	keepSet     map[uint64]struct{}
	abortRing   []uint64
	abortSet    map[uint64]struct{}
	recovTokens []uint64
	recovAborts []uint64
}

// version is one committed state retained in the ring: the sequence
// number it published, its committed meta image, and the page images
// it replaced (the before-images a pinned view older than this commit
// needs to reconstruct its state). All fields are immutable once the
// entry is published.
type version struct {
	seq    uint64
	meta   *page.Page
	before map[page.ID]*page.Page
}

// gcWaiter is one queued commit request: the transaction tokens it
// carries (empty for anonymous local commits) and the channel its
// caller blocks on until a leader's flush covers it.
type gcWaiter struct {
	tokens []uint64
	txns   uint64
	ch     chan error
}

// Stats is a snapshot of store activity counters.
type Stats struct {
	Pool       buffer.Stats
	DiskReads  uint64
	DiskWrites uint64
	WALAppends uint64
	WALSyncs   uint64
	Commits    uint64
}

// CommitStats report how effectively concurrent commits are being
// batched under shared WAL flushes.
type CommitStats struct {
	// Commits is the number of transactions durably committed.
	Commits uint64
	// Flushes is the number of physical commit barriers written to the
	// WAL; Commits/Flushes is the average batch size.
	Flushes uint64
	// GroupCommits is the number of barriers that carried more than
	// one transaction.
	GroupCommits uint64
	// GroupedTxns is the number of transactions that shared their
	// barrier with at least one other.
	GroupedTxns uint64
	// MaxBatch is the largest number of transactions under one barrier.
	MaxBatch uint64
}

// Open opens (creating if necessary) the database at path. The WAL is
// kept in path+".wal", both on Options.FS (the real filesystem by
// default). Pending committed work is recovered.
func Open(path string, opts *Options) (*Store, error) {
	o := opts.withDefaults()
	pg, err := pager.OpenFS(o.FS, path)
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenFS(o.FS, path+".wal")
	if err != nil {
		pg.Close()
		return nil, err
	}
	s := &Store{pg: pg, log: log, opts: o}
	s.pool = buffer.New(s.opts.PoolPages)
	s.ringCap = s.opts.VersionRing
	empty := []*version{}
	s.ring.Store(&empty)

	if log.Size() > 0 {
		res, err := log.ReplayFull(func(id page.ID, p *page.Page) error {
			// A crash can lose unsynced file growth: a committed image
			// may lie past the surviving end of the file (or inside a
			// torn final page). Regrow before writing.
			if err := pg.EnsurePages(uint64(id) + 1); err != nil {
				return err
			}
			return pg.Write(id, p)
		})
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("store: recovery: %w", err)
		}
		if err := pg.Sync(); err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("store: recovery: %w", err)
		}
		if err := log.Truncate(); err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("store: recovery: %w", err)
		}
		s.seedRecovery(res)
		// Truncation just dropped the in-doubt prepared records and the
		// token/abort memory with the rest of the log; put them back so
		// a second crash before the next checkpoint still recovers them.
		if err := s.relogLocked(); err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("store: recovery: %w", err)
		}
		s.recovered = true
	}

	if pg.PageCount() == 0 {
		if err := s.initFresh(); err != nil {
			s.closeFiles()
			return nil, err
		}
	} else if err := s.loadMeta(); err != nil {
		// A power cut during first-ever initialization can leave the
		// file grown but page 0 all zero (the meta write-back never
		// ran, and no WAL barrier committed a copy). An all-zero meta
		// can never be a committed state — every commit stores a
		// checksummed one — so it is safe to initialize afresh.
		// Anything else (garbage magic, foreign contents) stays fatal.
		var raw page.Page
		if rerr := s.readRaw(0, &raw); rerr == nil && isZeroPage(&raw) {
			if ierr := s.initFresh(); ierr != nil {
				s.closeFiles()
				return nil, ierr
			}
		} else {
			s.closeFiles()
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) closeFiles() {
	s.log.Close()
	s.pg.Close()
}

func (s *Store) initFresh() error {
	if s.pg.PageCount() == 0 {
		if _, err := s.pg.Extend(); err != nil { // reserve page 0
			return err
		}
	}
	m := page.New(page.TypeMeta)
	pl := m.Payload()
	copy(pl[metaMagicOff:], metaMagic[:])
	binary.LittleEndian.PutUint32(pl[metaVersionOff:], formatVersion)
	binary.LittleEndian.PutUint64(pl[metaFreeHeadOff:], uint64(page.Invalid))
	for i := 0; i < NumRoots; i++ {
		binary.LittleEndian.PutUint64(pl[metaRootsOff+8*i:], uint64(page.Invalid))
	}
	s.meta = m
	s.metaDirty = true
	return s.Commit()
}

// loadMeta (re)loads the meta page from disk and publishes it as the
// committed snapshot. Called at open and on Abort, both under writeMu
// (or before the store is shared).
func (s *Store) loadMeta() error {
	m := &page.Page{}
	if err := s.pg.Read(0, m); err != nil {
		return fmt.Errorf("store: load meta: %w", err)
	}
	pl := m.Payload()
	if [8]byte(pl[metaMagicOff:metaMagicOff+8]) != metaMagic {
		return errors.New("store: not a hypermodel database (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(pl[metaVersionOff:]); v != formatVersion {
		return fmt.Errorf("store: unsupported format version %d", v)
	}
	s.metaMu.Lock()
	s.meta = m
	s.metaDirty = false
	s.metaMu.Unlock()
	s.seq.Store(binary.LittleEndian.Uint64(pl[metaSeqOff:]))
	s.installMetaSnap()
	return nil
}

// installMetaSnap publishes a copy of the working meta page as the
// committed snapshot read by views. Writer only.
func (s *Store) installMetaSnap() {
	cp := *s.meta
	s.metaSnap.Store(&cp)
}

// Get pins the page with the given ID, reading it from disk on a miss.
// The handle is the frame's own (buffer.HandleOf), so a hit allocates
// nothing. Get never takes the writer lock: any number of goroutines
// may call it concurrently, and no lock is held across the disk read.
// Two goroutines that both miss on the same page both read it and race
// to insert; the loser adopts the winner's frame.
func (s *Store) Get(id page.ID) (Handle, error) {
	if id == 0 || id == page.Invalid {
		return nil, fmt.Errorf("store: get page %d: reserved page", id)
	}
	if f := s.pool.Get(id); f != nil {
		return buffer.HandleOf(f), nil
	}
	img := &page.Page{}
	if err := s.readPage(id, img); err != nil {
		return nil, err
	}
	f, _ := s.pool.GetOrInsert(id, img)
	return buffer.HandleOf(f), nil
}

// readPage reads a page from the main file under the write-back fence.
// Corruption errors are stamped with the committed sequence current at
// detection, completing the ErrCorruptPage{ID, Seq} taxonomy.
func (s *Store) readPage(id page.ID, dst *page.Page) error {
	s.backMu.RLock()
	err := s.pg.Read(id, dst)
	s.backMu.RUnlock()
	var ce *pager.ErrCorruptPage
	if errors.As(err, &ce) && ce.Seq == 0 {
		ce.Seq = s.seq.Load()
	}
	return err
}

// Alloc allocates a fresh zeroed page of type t, pinned and dirty.
func (s *Store) Alloc(t page.Type) (page.ID, Handle, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()

	if head := s.freeHead(); head != page.Invalid {
		h, err := s.Get(head)
		if err != nil {
			return page.Invalid, nil, fmt.Errorf("store: alloc from free list: %w", err)
		}
		next := page.ID(binary.LittleEndian.Uint64(h.Page().Payload()))
		s.setFreeHead(next)
		h.Page().Reset(t)
		h.MarkDirty()
		return head, h, nil
	}

	id, err := s.pg.Extend()
	if err != nil {
		return page.Invalid, nil, err
	}
	img := page.New(t)
	h := buffer.HandleOf(s.pool.Insert(id, img))
	h.MarkDirty()
	return id, h, nil
}

// Free pushes page id onto the free list.
func (s *Store) Free(id page.ID) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.freeLocked(id)
}

// freeLocked is Free with writeMu already held (DecidePrepared applies
// a prepared transaction's frees under its own writeMu hold).
func (s *Store) freeLocked(id page.ID) error {
	if id == 0 || id == page.Invalid {
		return fmt.Errorf("store: free page %d: reserved page", id)
	}
	h, err := s.Get(id)
	if err != nil {
		return err
	}
	defer h.Release()
	p := h.Page()
	p.Reset(page.TypeFree)
	binary.LittleEndian.PutUint64(p.Payload(), uint64(s.freeHead()))
	s.setFreeHead(id)
	h.MarkDirty()
	return nil
}

func (s *Store) freeHead() page.ID {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	return page.ID(binary.LittleEndian.Uint64(s.meta.Payload()[metaFreeHeadOff:]))
}

func (s *Store) setFreeHead(id page.ID) {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	binary.LittleEndian.PutUint64(s.meta.Payload()[metaFreeHeadOff:], uint64(id))
	s.metaDirty = true
}

// Root returns the page ID in root slot, or page.Invalid if unset.
// Safe for concurrent use; it reflects the writer's uncommitted root
// changes (views resolve roots against the committed snapshot instead).
func (s *Store) Root(slot int) page.ID {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	return page.ID(binary.LittleEndian.Uint64(s.meta.Payload()[metaRootsOff+8*slot:]))
}

// SetRoot updates root slot; durable at the next Commit.
func (s *Store) SetRoot(slot int, id page.ID) {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	binary.LittleEndian.PutUint64(s.meta.Payload()[metaRootsOff+8*slot:], uint64(id))
	s.metaDirty = true
}

// Commit makes every modification since the last Commit durable: dirty
// page images go to the WAL, a commit record is appended and synced,
// then the images are written back to the main file (unsynced), fresh
// committed snapshots are installed for readers, and the frames marked
// clean. Concurrent callers coalesce into group commits: the first
// becomes the leader and flushes every request queued behind it under
// a single fsync.
func (s *Store) Commit() error {
	return s.groupCommit(nil, 1)
}

// CommitTokens is Commit for a leader acting on behalf of a batch of
// transactions: the commit barrier written to the WAL records the
// batch's transaction tokens (kindGroup), and the batch counts as
// len(tokens) transactions in CommitStats. An empty token list behaves
// exactly like Commit.
func (s *Store) CommitTokens(tokens []uint64) error {
	txns := uint64(len(tokens))
	if txns == 0 {
		txns = 1
	}
	return s.groupCommit(tokens, txns)
}

// groupCommit enqueues one commit request and either waits for an
// active leader's flush to cover it or becomes the leader and drains
// the queue itself, batch by batch, until it is empty.
func (s *Store) groupCommit(tokens []uint64, txns uint64) error {
	w := &gcWaiter{tokens: tokens, txns: txns, ch: make(chan error, 1)}
	s.gcMu.Lock()
	s.gcQueue = append(s.gcQueue, w)
	if s.gcActive {
		s.gcMu.Unlock()
		return <-w.ch
	}
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

		var toks []uint64
		var n uint64
		for _, b := range batch {
			toks = append(toks, b.tokens...)
			n += b.txns
		}
		s.writeMu.Lock()
		err := s.commitLocked(toks, n)
		s.writeMu.Unlock()
		for _, b := range batch {
			b.ch <- err
		}
		s.gcMu.Lock()
	}
	return <-w.ch
}

// commitLocked flushes the current dirty set as one commit covering
// txns transactions identified by tokens (both may describe a batch
// when a group-commit leader is calling). Direct callers that are not
// leaders (Checkpoint, Backup, Close) pass nil, 1.
func (s *Store) commitLocked(tokens []uint64, txns uint64) error {
	err := s.flushLocked(txns, func(newSeq uint64) error {
		if len(tokens) > 0 {
			_, err := s.log.AppendCommitGroup(newSeq, tokens, s.opts.NoSync)
			return err
		}
		if s.opts.NoSync {
			_, err := s.log.AppendCommitNoSync(newSeq)
			return err
		}
		_, err := s.log.AppendCommit(newSeq)
		return err
	})
	if err != nil {
		return err
	}
	s.recordTokensLocked(tokens)
	return s.maybeCheckpointLocked()
}

// flushLocked writes the current dirty set to the WAL, seals it with
// the barrier record the caller appends (a commit, a commit group, or
// a 2PC decide), writes the images back to the main file, and installs
// the new committed state for readers. It is the shared tail of
// commitLocked and DecidePrepared; barrier runs exactly once, after
// the dirty images are in the log.
func (s *Store) flushLocked(txns uint64, barrier func(newSeq uint64) error) error {
	dirty := s.pool.DirtyFrames()
	s.metaMu.RLock()
	metaDirty := s.metaDirty
	s.metaMu.RUnlock()
	if len(dirty) == 0 && !metaDirty {
		return nil
	}
	newSeq := s.seq.Load() + 1
	s.metaMu.Lock()
	binary.LittleEndian.PutUint64(s.meta.Payload()[metaSeqOff:], newSeq)
	s.metaDirty = true
	s.metaMu.Unlock()

	for _, f := range dirty {
		if _, err := s.log.AppendPage(f.ID, f.Page); err != nil {
			return err
		}
	}
	if _, err := s.log.AppendPage(0, s.meta); err != nil {
		return err
	}
	if err := barrier(newSeq); err != nil {
		return err
	}

	// Write-back, fenced against reader preads. No-steal means a reader
	// can only be pread-ing pages that are not resident, hence not in
	// this dirty set — the fence closes the one remaining window, where
	// a page becomes resident and dirty between a reader's miss and its
	// pread.
	s.backMu.Lock()
	for _, f := range dirty {
		if err := s.pg.Write(f.ID, f.Page); err != nil {
			s.backMu.Unlock()
			return err
		}
	}
	if err := s.pg.Write(0, s.meta); err != nil {
		s.backMu.Unlock()
		return err
	}
	s.backMu.Unlock()

	// Install the new committed state for readers. The odd/even seqlock
	// generation lets a reader detect that this window overlapped its
	// operation and re-run it (ReadView.Atomically). The version-ring
	// entry — this commit's before-images plus its meta snapshot — is
	// published inside the same window, so a reader that saw a stable
	// generation saw a ring covering every completed commit.
	s.rseq.Add(1)
	var before map[page.ID]*page.Page
	if s.ringCap > 0 {
		before = make(map[page.ID]*page.Page, len(dirty))
		for _, f := range dirty {
			if old := f.Snapshot(); old != nil {
				before[f.ID] = old
			}
		}
	}
	for _, f := range dirty {
		f.InstallSnapshot()
	}
	s.installMetaSnap()
	if s.ringCap > 0 {
		old := *s.ring.Load()
		start := 0
		if len(old)+1 > s.ringCap {
			start = len(old) + 1 - s.ringCap
		}
		entries := make([]*version, 0, len(old)+1-start)
		entries = append(entries, old[start:]...)
		entries = append(entries, &version{seq: newSeq, meta: s.metaSnap.Load(), before: before})
		s.ring.Store(&entries)
	}
	s.seq.Store(newSeq)
	s.rseq.Add(1)

	s.pool.MarkAllClean()
	s.metaMu.Lock()
	s.metaDirty = false
	s.metaMu.Unlock()

	s.txnCommits.Add(txns)
	s.flushes.Add(1)
	if txns > 1 {
		s.groupFlushes.Add(1)
		s.groupedTxns.Add(txns)
	}
	for {
		cur := s.maxBatch.Load()
		if txns <= cur || s.maxBatch.CompareAndSwap(cur, txns) {
			break
		}
	}
	return nil
}

func (s *Store) maybeCheckpointLocked() error {
	if s.opts.CheckpointBytes > 0 && s.log.Size() > s.opts.CheckpointBytes {
		return s.checkpointLocked()
	}
	return nil
}

// Checkpoint fsyncs the main file and truncates the WAL. Implies Commit.
func (s *Store) Checkpoint() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.commitLocked(nil, 1); err != nil {
		return err
	}
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	if err := s.pg.Sync(); err != nil {
		return err
	}
	if err := s.log.Truncate(); err != nil {
		return err
	}
	// Truncation dropped any in-doubt prepared transactions and the
	// token/abort memory along with the applied images; re-log them so
	// they survive a crash after this checkpoint (see prepare.go).
	return s.relogLocked()
}

// DropCache empties the buffer pool, so the next access to every page
// is cold (a disk read). It refuses to run with uncommitted changes.
// The meta page stays resident; reopening a real database would reread
// one page, which is negligible and keeps the API misuse-proof.
func (s *Store) DropCache() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.pool.HasDirty() {
		return errors.New("store: DropCache with uncommitted changes")
	}
	s.pool.Drop()
	return nil
}

// Backup writes a consistent copy of the database to destPath (R10).
// It checkpoints first, so the copy contains every committed change
// and needs no WAL; the backup can be opened directly as a database.
// The writer is locked for the duration (the databases here are small;
// a fuzzy ARIES-style backup would be overkill).
func (s *Store) Backup(destPath string) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.commitLocked(nil, 1); err != nil {
		return err
	}
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	dst, err := pager.OpenFS(s.opts.FS, destPath)
	if err != nil {
		return fmt.Errorf("store: backup: %w", err)
	}
	if dst.PageCount() != 0 {
		dst.Close()
		return fmt.Errorf("store: backup target %s is not empty", destPath)
	}
	var img page.Page
	for id := uint64(0); id < s.pg.PageCount(); id++ {
		if err := s.pg.Read(page.ID(id), &img); err != nil {
			// Never-written holes (allocated but uncommitted at a past
			// crash) fail checksum validation; back them up as free
			// pages.
			img.Reset(page.TypeFree)
		}
		if err := dst.Write(page.ID(id), &img); err != nil {
			dst.Close()
			return fmt.Errorf("store: backup: %w", err)
		}
	}
	if err := dst.Sync(); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// Abort discards all uncommitted modifications: pooled dirty pages are
// dropped and the meta page is reloaded from disk. Because the store
// is no-steal (nothing reaches the WAL or the file before Commit),
// dropping the cache is a complete rollback. The committed state —
// what readers see — is unchanged.
func (s *Store) Abort() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.pool.Drop()
	if s.pg.PageCount() > 0 {
		if err := s.loadMeta(); err != nil {
			return fmt.Errorf("store: abort: %w", err)
		}
	} else {
		s.metaMu.Lock()
		s.metaDirty = false
		s.metaMu.Unlock()
	}
	return nil
}

// Seq returns the committed commit-sequence number.
func (s *Store) Seq() uint64 { return s.seq.Load() }

// Stats returns a snapshot of activity counters. Every source is
// atomic, so Stats never blocks the read path (or waits behind a
// commit fsync).
func (s *Store) Stats() Stats {
	reads, writes := s.pg.Stats()
	appends, syncs := s.log.Stats()
	return Stats{
		Pool:       s.pool.Stats(),
		DiskReads:  reads,
		DiskWrites: writes,
		WALAppends: appends,
		WALSyncs:   syncs,
		Commits:    s.seq.Load(),
	}
}

// CacheStats reports buffer pool hits, misses and disk reads in the
// shape shared with remote page-server clients.
func (s *Store) CacheStats() (hits, misses, reads uint64) {
	st := s.Stats()
	return st.Pool.Hits, st.Pool.Misses, st.DiskReads
}

// CommitStats reports how many transactions committed, how many
// physical WAL flushes carried them, and the batching shape — the
// group-commit amortization evidence.
func (s *Store) CommitStats() CommitStats {
	return CommitStats{
		Commits:      s.txnCommits.Load(),
		Flushes:      s.flushes.Load(),
		GroupCommits: s.groupFlushes.Load(),
		GroupedTxns:  s.groupedTxns.Load(),
		MaxBatch:     s.maxBatch.Load(),
	}
}

// Recovered reports whether crash recovery ran when the store was
// opened.
func (s *Store) Recovered() bool { return s.recovered }

// PageCount reports the current size of the database file in pages.
func (s *Store) PageCount() uint64 { return s.pg.PageCount() }

// Close commits pending work, checkpoints, and closes the files.
func (s *Store) Close() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.commitLocked(nil, 1); err != nil {
		return err
	}
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	if err := s.log.Close(); err != nil {
		s.pg.Close()
		return err
	}
	return s.pg.Close()
}

// ReadView is a read-only Space over the store's committed state. Any
// number of views (and goroutines per view) may read concurrently with
// each other and with the single writer: pages resolve to immutable
// committed snapshots, roots resolve against the committed meta page,
// and Atomically guards multi-page operations against commits
// installing mid-operation. Mutating methods fail with ErrReadOnly.
type ReadView struct {
	s *Store
}

// ReadView returns a read-only view of the store's committed state.
// Views are cheap: they share the store's buffer pool (reads through a
// view warm it) and hold no state of their own.
func (s *Store) ReadView() *ReadView { return &ReadView{s} }

// ReadOnly marks the view for layers above the page store: structures
// opened over it should refuse mutations up front (with ErrReadOnly)
// instead of tripping the MarkDirty panic mid-update.
func (v *ReadView) ReadOnly() bool { return true }

// roHandle is a Handle over an immutable committed snapshot. There is
// no pin to release: the snapshot outlives any frame bookkeeping.
type roHandle struct {
	p *page.Page
}

func (h roHandle) Page() *page.Page { return h.p }
func (h roHandle) MarkDirty()       { panic("store: MarkDirty through a read-only view") }
func (h roHandle) Release()         {}

// Get returns the committed image of a page. On a pool miss the page is
// read from the main file — committed by definition under no-steal —
// and inserted so later readers (and the writer) hit.
func (v *ReadView) Get(id page.ID) (Handle, error) {
	if id == 0 || id == page.Invalid {
		return nil, fmt.Errorf("store: get page %d: reserved page", id)
	}
	if sp := v.s.pool.Snapshot(id); sp != nil {
		return roHandle{sp}, nil
	}
	img := &page.Page{}
	if err := v.s.readPage(id, img); err != nil {
		return nil, err
	}
	f, _ := v.s.pool.GetOrInsert(id, img)
	sp := f.Snapshot()
	v.s.pool.Release(f)
	return roHandle{sp}, nil
}

// Alloc fails: views are read-only.
func (v *ReadView) Alloc(t page.Type) (page.ID, Handle, error) {
	return page.Invalid, nil, ErrReadOnly
}

// Free fails: views are read-only.
func (v *ReadView) Free(id page.ID) error { return ErrReadOnly }

// Root resolves a root slot against the committed meta snapshot, so an
// uncommitted SetRoot (say, a B+tree root split inside the writer's
// open transaction) is invisible to readers.
func (v *ReadView) Root(slot int) page.ID {
	m := v.s.metaSnap.Load()
	return page.ID(binary.LittleEndian.Uint64(m.Payload()[metaRootsOff+8*slot:]))
}

// Roots returns all root slots resolved against one committed meta
// snapshot — a torn root directory is impossible.
func (v *ReadView) Roots() [NumRoots]page.ID {
	m := v.s.metaSnap.Load()
	pl := m.Payload()
	var out [NumRoots]page.ID
	for i := range out {
		out[i] = page.ID(binary.LittleEndian.Uint64(pl[metaRootsOff+8*i:]))
	}
	return out
}

// SetRoot panics: views are read-only. (Space's SetRoot has no error
// return; reaching this is a programming error, like double-releasing
// a frame.)
func (v *ReadView) SetRoot(slot int, id page.ID) {
	panic("store: SetRoot through a read-only view")
}

// Commit fails: views are read-only.
func (v *ReadView) Commit() error { return ErrReadOnly }

// Abort is a no-op: a view holds no uncommitted state to discard.
func (v *ReadView) Abort() error { return nil }

// Close is a no-op: the view borrows the store's resources.
func (v *ReadView) Close() error { return nil }

// DropCache fails: the pool is shared with the writer and other
// readers, so a view may not empty it.
func (v *ReadView) DropCache() error { return ErrReadOnly }

// CacheStats reports the shared pool's hits, misses and disk reads.
func (v *ReadView) CacheStats() (hits, misses, reads uint64) {
	return v.s.CacheStats()
}

// Seq returns the committed commit-sequence number, as Store.Seq.
func (v *ReadView) Seq() uint64 { return v.s.Seq() }

// Snapshot pins the store's current committed version, as
// Store.Snapshot: the returned view keeps reading that version while
// this ReadView continues to track the latest.
func (v *ReadView) Snapshot() (*SnapshotView, error) { return v.s.Snapshot() }

// Atomically runs op so that every page it reads through the view
// belongs to one committed state. If a commit installs while op runs
// (or is installing when it starts), op is re-run — so op must be
// restartable: no side effects it cannot repeat, and any error it
// returns while the state was torn is discarded along with the run.
// The final run's error is returned.
func (v *ReadView) Atomically(op func() error) error {
	for {
		s0 := v.s.rseq.Load()
		if s0&1 == 0 {
			err := op()
			if v.s.rseq.Load() == s0 {
				return err
			}
		}
		runtime.Gosched()
	}
}

// SnapshotView is a read-only Space pinned to one committed version.
// Unlike a ReadView — which always tracks the latest committed state —
// a SnapshotView keeps resolving every page and root exactly as they
// were at the version it was pinned to, while commits proceed
// underneath it. It stays valid until Options.VersionRing commits have
// landed after the pin, after which reads fail with ErrSnapshotTooOld.
type SnapshotView struct {
	s    *Store
	seq  uint64
	meta *page.Page
}

// Snapshot pins a view to the current committed version. Pinning is
// cheap — it captures the committed sequence number and meta snapshot,
// nothing else — and never blocks the writer.
func (s *Store) Snapshot() (*SnapshotView, error) {
	for {
		r0 := s.rseq.Load()
		if r0&1 == 0 {
			seq := s.seq.Load()
			meta := s.metaSnap.Load()
			if s.rseq.Load() == r0 {
				return &SnapshotView{s: s, seq: seq, meta: meta}, nil
			}
		}
		runtime.Gosched()
	}
}

// Get returns the image of a page as of the pinned version: the
// before-image recorded by the oldest later commit that overwrote the
// page, or the live committed image when no later commit touched it.
func (v *SnapshotView) Get(id page.ID) (Handle, error) {
	if id == 0 || id == page.Invalid {
		return nil, fmt.Errorf("store: get page %d: reserved page", id)
	}
	for {
		r0 := v.s.rseq.Load()
		if r0&1 != 0 {
			runtime.Gosched()
			continue
		}
		ring := *v.s.ring.Load()
		// The reconstruction below is sound only while the ring still
		// covers every commit after the pinned version.
		if len(ring) > 0 {
			if ring[0].seq > v.seq+1 {
				return nil, ErrSnapshotTooOld
			}
		} else if v.s.seq.Load() != v.seq {
			return nil, ErrSnapshotTooOld
		}
		for _, e := range ring {
			if e.seq <= v.seq {
				continue
			}
			if img, ok := e.before[id]; ok {
				return roHandle{img}, nil
			}
		}
		// No commit after the pin touched the page: the live committed
		// image is the pinned image. Validate that no commit installed
		// while we read it — a fresh one may have added the page's
		// before-image to the ring, so retry resolves correctly.
		var img *page.Page
		if sp := v.s.pool.Snapshot(id); sp != nil {
			img = sp
		} else {
			tmp := &page.Page{}
			if err := v.s.readPage(id, tmp); err != nil {
				return nil, err
			}
			f, _ := v.s.pool.GetOrInsert(id, tmp)
			img = f.Snapshot()
			v.s.pool.Release(f)
		}
		if v.s.rseq.Load() == r0 {
			return roHandle{img}, nil
		}
	}
}

// Alloc fails: snapshots are read-only.
func (v *SnapshotView) Alloc(t page.Type) (page.ID, Handle, error) {
	return page.Invalid, nil, ErrReadOnly
}

// Free fails: snapshots are read-only.
func (v *SnapshotView) Free(id page.ID) error { return ErrReadOnly }

// Root resolves a root slot against the pinned meta image.
func (v *SnapshotView) Root(slot int) page.ID {
	return page.ID(binary.LittleEndian.Uint64(v.meta.Payload()[metaRootsOff+8*slot:]))
}

// Roots returns all root slots as of the pinned version.
func (v *SnapshotView) Roots() [NumRoots]page.ID {
	pl := v.meta.Payload()
	var out [NumRoots]page.ID
	for i := range out {
		out[i] = page.ID(binary.LittleEndian.Uint64(pl[metaRootsOff+8*i:]))
	}
	return out
}

// SetRoot panics: snapshots are read-only.
func (v *SnapshotView) SetRoot(slot int, id page.ID) {
	panic("store: SetRoot through a snapshot view")
}

// Commit fails: snapshots are read-only.
func (v *SnapshotView) Commit() error { return ErrReadOnly }

// ReadOnly marks the view for layers above the page store (see
// ReadView.ReadOnly).
func (v *SnapshotView) ReadOnly() bool { return true }

// Abort is a no-op: a snapshot holds no uncommitted state.
func (v *SnapshotView) Abort() error { return nil }

// Close is a no-op: the snapshot borrows the store's resources, and
// the ring reclaims its version by aging regardless.
func (v *SnapshotView) Close() error { return nil }

// DropCache fails: the pool is shared with the writer and other
// readers.
func (v *SnapshotView) DropCache() error { return ErrReadOnly }

// CacheStats reports the shared pool's hits, misses and disk reads.
func (v *SnapshotView) CacheStats() (hits, misses, reads uint64) {
	return v.s.CacheStats()
}

// Seq returns the pinned committed sequence number.
func (v *SnapshotView) Seq() uint64 { return v.seq }

// Snapshot returns the view itself: a snapshot of a snapshot is the
// same version.
func (v *SnapshotView) Snapshot() (*SnapshotView, error) { return v, nil }

// Atomically runs op directly: a pinned view is stable by
// construction, so there is nothing to re-run against.
func (v *SnapshotView) Atomically(op func() error) error { return op() }

var (
	_ Space = (*Store)(nil)
	_ Space = (*ReadView)(nil)
	_ Space = (*SnapshotView)(nil)
)

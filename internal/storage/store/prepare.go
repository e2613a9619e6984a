// Two-phase commit support: the store-side half of the cluster's
// cross-shard commit protocol.
//
// A shard votes yes on a cross-shard transaction by staging its write
// set in the prepared-but-undecided state: Prepare forces the images,
// root updates and frees to the WAL behind a prepare barrier, so the
// vote survives any crash, but applies nothing — the committed state
// readers see is untouched. DecidePrepared later applies the stash
// (commit) or discards it behind a durable tombstone (abort). Recovery
// rebuilds the in-doubt stash from the log, and a checkpoint
// truncation re-logs it, so a prepared transaction can only leave this
// state through a decision.
//
// The store also remembers decisions: the tokens of applied commits
// (bounded by Options.TokenKeep) and of durable aborts (bounded by
// abortKeep) are re-logged across checkpoints, so a restarted server
// answers a resent commit or an in-doubt participant's status poll
// correctly even when the covering WAL generation is long gone.
package store

import (
	"errors"
	"fmt"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/wal"
)

// Re-exports so the remote tier can speak the prepared-transaction
// vocabulary without importing the WAL directly.
type (
	// PreparedTxn is a transaction in the prepared-but-undecided state.
	PreparedTxn = wal.PreparedTxn
	// PageImage is one staged page write inside a PreparedTxn.
	PageImage = wal.PageImage
	// RootUpdate is one staged named-root assignment inside a PreparedTxn.
	RootUpdate = wal.RootUpdate
)

// abortKeep bounds the store's memory of durable abort decisions. A
// participant in doubt polls its coordinator within seconds, so a ring
// of recent aborts is ample; an abort that somehow ages out before the
// poll leaves the participant waiting (safe) rather than guessing.
const abortKeep = 256

// seedRecovery installs what replay learned beyond the applied images:
// the in-doubt prepared transactions, and the commit/abort decisions
// to remember. Runs at Open, before the store is shared.
func (s *Store) seedRecovery(res *wal.ReplayResult) {
	s.recovTokens = res.Tokens
	s.recovAborts = res.Aborted
	s.recordTokensLocked(res.Tokens)
	for _, tok := range res.Aborted {
		s.aborts.Add(tok)
	}
	for _, pt := range res.Prepared {
		s.stashPreparedLocked(pt)
	}
}

// Prepare stages a transaction's write set in the prepared state (the
// 2PC yes-vote). After Prepare returns nil the stash can no longer be
// lost, but nothing is applied until DecidePrepared — readers and the
// working state are untouched. The caller owns conflict validation
// (the page server validates the read set before voting); the store
// only promises durability of the stash. Images are copied, so the
// caller may reuse its buffers. Preparing an already-prepared or
// already-applied token is a no-op: votes are idempotent.
func (s *Store) Prepare(token uint64, images []PageImage, roots []RootUpdate, frees []page.ID) error {
	if token == 0 {
		return errors.New("store: prepare requires a nonzero token")
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed {
		return errors.New("store: prepare on closed store")
	}
	if _, ok := s.prepared[token]; ok {
		return nil
	}
	if s.keepTokens.Has(token) {
		return nil
	}
	pt := &PreparedTxn{
		Token: token,
		Roots: append([]RootUpdate(nil), roots...),
		Frees: append([]page.ID(nil), frees...),
	}
	pt.Images = make([]PageImage, 0, len(images))
	for _, pi := range images {
		cp := *pi.Image
		pt.Images = append(pt.Images, PageImage{ID: pi.ID, Image: &cp})
	}
	for _, pi := range pt.Images {
		if _, err := s.log.AppendPage(pi.ID, pi.Image); err != nil {
			return err
		}
	}
	if _, err := s.log.AppendPrepare(token, pt.Roots, pt.Frees); err != nil {
		return err
	}
	s.stashPreparedLocked(pt)
	return nil
}

// DecidePrepared resolves a prepared transaction. Commit applies the
// stash — images into the pool, root updates, frees — and flushes it
// behind a durable decide barrier, exactly like a commit of the same
// writes. Abort discards the stash behind a durable tombstone; an
// abort for a token never prepared here still writes the tombstone,
// because a coordinator records presumed-abort decisions for
// transactions whose client vanished before preparing anything, and
// in-doubt participants polling later need the definite answer. Both
// directions are idempotent.
func (s *Store) DecidePrepared(token uint64, commit bool) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed {
		return errors.New("store: decide on closed store")
	}
	pt := s.prepared[token]
	if !commit {
		if _, err := s.log.AppendDecide(token, false); err != nil {
			return err
		}
		if pt != nil {
			s.dropPreparedLocked(token)
		}
		s.aborts.Add(token)
		return nil
	}
	if pt == nil {
		if s.keepTokens.Has(token) {
			return nil // already applied
		}
		return fmt.Errorf("store: decide commit for unknown prepared transaction %#x", token)
	}
	for _, pi := range pt.Images {
		// The page was allocated before the prepare, but a crash since
		// can have lost unsynced file growth; regrow so the write-back
		// lands. The stash is applied directly into the pool — the
		// on-disk image may be an unwritten hole, so it is never read.
		if err := s.pg.EnsurePages(uint64(pi.ID) + 1); err != nil {
			return err
		}
		if f := s.pool.Get(pi.ID); f != nil {
			*f.Page = *pi.Image
			s.pool.MarkDirty(f)
			s.pool.Release(f)
			continue
		}
		cp := *pi.Image
		f, installed := s.pool.GetOrInsert(pi.ID, &cp)
		if !installed {
			*f.Page = *pi.Image
		}
		s.pool.MarkDirty(f)
		s.pool.Release(f)
	}
	for _, r := range pt.Roots {
		s.SetRoot(r.Slot, r.ID)
	}
	for _, id := range pt.Frees {
		if err := s.freeLocked(id); err != nil {
			return err
		}
	}
	if err := s.flushLocked(1, func(uint64) error {
		_, err := s.log.AppendDecide(token, true)
		return err
	}); err != nil {
		return err
	}
	s.dropPreparedLocked(token)
	s.recordTokensLocked([]uint64{token})
	return s.maybeCheckpointLocked()
}

// PreparedTxns returns the transactions currently in the prepared
// state, oldest first. The page server seeds its conflict interlock
// and in-doubt resolver from this after a restart.
func (s *Store) PreparedTxns() []*PreparedTxn {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	out := make([]*PreparedTxn, 0, len(s.prepOrder))
	for _, tok := range s.prepOrder {
		if pt := s.prepared[tok]; pt != nil {
			out = append(out, pt)
		}
	}
	return out
}

// RecoveredTokens returns the commit tokens recovery replayed from the
// WAL at Open, in log order: the transactions this store demonstrably
// applied. A restarted page server seeds its duplicate-commit memory
// from them.
func (s *Store) RecoveredTokens() []uint64 { return s.recovTokens }

// RecoveredAborts returns the abort decisions recovery found in the
// WAL at Open, in log order.
func (s *Store) RecoveredAborts() []uint64 { return s.recovAborts }

// stashPreparedLocked records a prepared transaction in memory (the
// durable record is already in the WAL).
func (s *Store) stashPreparedLocked(pt *PreparedTxn) {
	if s.prepared == nil {
		s.prepared = make(map[uint64]*PreparedTxn)
	}
	if _, ok := s.prepared[pt.Token]; ok {
		return
	}
	s.prepared[pt.Token] = pt
	s.prepOrder = append(s.prepOrder, pt.Token)
}

func (s *Store) dropPreparedLocked(token uint64) {
	delete(s.prepared, token)
	for i, tok := range s.prepOrder {
		if tok == token {
			s.prepOrder = append(s.prepOrder[:i], s.prepOrder[i+1:]...)
			break
		}
	}
}

// recordTokensLocked remembers applied commit tokens in the keep ring
// (sized by Options.TokenKeep; zero keeps none).
func (s *Store) recordTokensLocked(tokens []uint64) {
	for _, tok := range tokens {
		s.keepTokens.Add(tok)
	}
}

// relogLocked re-appends the state that must outlive a WAL truncation:
// every in-doubt prepared transaction (images plus prepare barrier),
// the applied-token keep ring, and the remembered abort decisions.
// Called with the log freshly truncated, at recovery and after every
// checkpoint.
func (s *Store) relogLocked() error {
	for _, tok := range s.prepOrder {
		pt := s.prepared[tok]
		if pt == nil {
			continue
		}
		for _, pi := range pt.Images {
			if _, err := s.log.AppendPage(pi.ID, pi.Image); err != nil {
				return err
			}
		}
		if _, err := s.log.AppendPrepare(pt.Token, pt.Roots, pt.Frees); err != nil {
			return err
		}
	}
	if keep := s.keepTokens.Tokens(); len(keep) > 0 {
		if _, err := s.log.AppendCommitGroup(s.seq.Load(), keep, true); err != nil {
			return err
		}
	}
	for _, tok := range s.aborts.Tokens() {
		if _, err := s.log.AppendDecideNoSync(tok, false); err != nil {
			return err
		}
	}
	return s.log.Sync()
}

// Stub of the real store package for the lifecycle fixtures.
package store

import (
	"errors"

	"hypermodel/internal/storage/buffer"
)

var ErrSnapshotTooOld = errors.New("snapshot too old")

type Store struct{}

func (s *Store) Snapshot() (*SnapshotView, error) { return &SnapshotView{}, nil }
func (s *Store) ReadView() *ReadView              { return &ReadView{} }

type SnapshotView struct{}

func (v *SnapshotView) Get(id uint64) ([]byte, error) { return nil, nil }
func (v *SnapshotView) Close() error                  { return nil }

type ReadView struct{}

func (v *ReadView) Close() error { return nil }

// The store is checked for the frames it pins, but not for the
// snapshots it produces.

func (s *Store) leakFrame(p *buffer.Pool) uint64 {
	f := p.Get(1) // want `frame pinned here is not released via Pool.Release on every path to return`
	return f.ID
}

func (s *Store) keepSnapshot() {
	v, err := s.Snapshot()
	if err != nil {
		return
	}
	v.Get(1)
}

package fault

import (
	"fmt"
	"sync"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// Space wraps a store.Space with a deterministic failure schedule:
// every ErrEvery-th operation returns an injected error, and every
// PanicEvery-th operation panics. Counting-based scheduling (rather
// than probabilities) lets a test say "the third Get fails" exactly.
// The zero intervals disable the corresponding fault.
type Space struct {
	Inner store.Space

	mu         sync.Mutex
	errEvery   int
	panicEvery int
	ops        int
}

// NewSpace wraps inner; errEvery and panicEvery schedule the faults
// (0 disables).
func NewSpace(inner store.Space, errEvery, panicEvery int) *Space {
	return &Space{Inner: inner, errEvery: errEvery, panicEvery: panicEvery}
}

// step advances the operation counter and delivers a scheduled fault.
func (s *Space) step(op string) error {
	s.mu.Lock()
	s.ops++
	ops := s.ops
	doPanic := s.panicEvery > 0 && ops%s.panicEvery == 0
	doErr := !doPanic && s.errEvery > 0 && ops%s.errEvery == 0
	s.mu.Unlock()
	if doPanic {
		panic(fmt.Sprintf("fault: injected panic in %s (op %d)", op, ops))
	}
	if doErr {
		return fmt.Errorf("%w: %s (op %d)", ErrInjected, op, ops)
	}
	return nil
}

// Get pins a page, or fails on schedule.
func (s *Space) Get(id page.ID) (store.Handle, error) {
	if err := s.step("Get"); err != nil {
		return nil, err
	}
	return s.Inner.Get(id)
}

// Alloc allocates a page, or fails on schedule.
func (s *Space) Alloc(t page.Type) (page.ID, store.Handle, error) {
	if err := s.step("Alloc"); err != nil {
		return page.Invalid, nil, err
	}
	return s.Inner.Alloc(t)
}

// Free releases a page, or fails on schedule.
func (s *Space) Free(id page.ID) error {
	if err := s.step("Free"); err != nil {
		return err
	}
	return s.Inner.Free(id)
}

// Root reads a root slot (never scheduled to fail: it cannot return an
// error).
func (s *Space) Root(slot int) page.ID { return s.Inner.Root(slot) }

// SetRoot updates a root slot.
func (s *Space) SetRoot(slot int, id page.ID) { s.Inner.SetRoot(slot, id) }

// Commit commits, or fails on schedule.
func (s *Space) Commit() error {
	if err := s.step("Commit"); err != nil {
		return err
	}
	return s.Inner.Commit()
}

var _ store.Space = (*Space)(nil)

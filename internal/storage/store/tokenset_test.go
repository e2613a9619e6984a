package store

import (
	"math/rand"
	"slices"
	"testing"
)

// fifoModel is the eviction the token memories used before TokenSet: a
// slice in insertion order plus a membership map, where a full slice
// drops its first element by shifting the rest down.
type fifoModel struct {
	max   int
	order []uint64
	set   map[uint64]struct{}
}

func (m *fifoModel) add(tok uint64) {
	if tok == 0 || m.max <= 0 {
		return
	}
	if _, ok := m.set[tok]; ok {
		return
	}
	m.set[tok] = struct{}{}
	m.order = append(m.order, tok)
	if len(m.order) > m.max {
		delete(m.set, m.order[0])
		m.order = append(m.order[:0], m.order[1:]...)
	}
}

// TestTokenSetModel drives TokenSet and the old slice-shifting FIFO with
// the same random tokens (small ranges, so repeats, re-adds after
// eviction and the zero token all occur) and checks after every step
// that both hold the same members in the same oldest-first order.
func TestTokenSetModel(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 3, 7, 64} {
		for _, span := range []int{4, 16, 200} {
			rng := rand.New(rand.NewSource(int64(capacity*1000 + span)))
			ts := NewTokenSet(capacity)
			m := &fifoModel{max: capacity, set: make(map[uint64]struct{})}
			for step := 0; step < 2000; step++ {
				tok := uint64(rng.Intn(span))
				ts.Add(tok)
				m.add(tok)
				if got := ts.Tokens(); !slices.Equal(got, m.order) {
					t.Fatalf("cap %d span %d step %d: order %v, model %v", capacity, span, step, got, m.order)
				}
				probe := uint64(rng.Intn(span))
				if _, want := m.set[probe]; ts.Has(probe) != want {
					t.Fatalf("cap %d span %d step %d: Has(%d) = %v, model %v", capacity, span, step, probe, !want, want)
				}
			}
		}
	}
}

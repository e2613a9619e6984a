package store

// TokenSet is a bounded set of transaction tokens that forgets its
// oldest member once full: a ring of fixed capacity keeps insertion
// order and a map answers membership, so Add and Has are O(1) however
// full the set is. The store's re-logged commit-token and abort
// memories and the page server's duplicate-commit and abort rings are
// all TokenSets. Not safe for concurrent use: owners guard it with
// their writer lock.
type TokenSet struct {
	max  int
	ring []uint64 // grows to max; once full, ring[head] is the oldest
	head int
	set  map[uint64]struct{}
}

// NewTokenSet returns a set that remembers the most recent capacity
// tokens. A capacity of zero or less remembers nothing.
func NewTokenSet(capacity int) *TokenSet {
	return &TokenSet{max: capacity, set: make(map[uint64]struct{})}
}

// Add remembers tok, evicting the oldest member when the set is full.
// Adding a member again changes nothing, and the zero token, which
// means "untokened" throughout the commit protocol, is never kept.
func (t *TokenSet) Add(tok uint64) {
	if tok == 0 || t.max <= 0 {
		return
	}
	if _, ok := t.set[tok]; ok {
		return
	}
	if len(t.ring) < t.max {
		t.ring = append(t.ring, tok)
	} else {
		delete(t.set, t.ring[t.head])
		t.ring[t.head] = tok
		t.head = (t.head + 1) % t.max
	}
	t.set[tok] = struct{}{}
}

// Has reports whether tok is a member.
func (t *TokenSet) Has(tok uint64) bool {
	_, ok := t.set[tok]
	return ok
}

// Tokens returns the members oldest first, in a fresh slice.
func (t *TokenSet) Tokens() []uint64 {
	out := make([]uint64, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	return append(out, t.ring[:t.head]...)
}

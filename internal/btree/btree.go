// Package btree implements a disk-resident B+tree over a page store.
//
// Keys and values are byte strings ordered by bytes.Compare; integer
// keys are encoded big-endian by callers to preserve order. All indexes
// in the repository (uniqueId, hundred, million, object table,
// relational tables) are instances of this tree.
//
// Design notes:
//   - Leaf pages are chained left-to-right for range scans.
//   - Duplicates are not stored; secondary indexes append the primary
//     key to the index key to make entries unique (see keys.go).
//   - Deletion is lazy: keys are removed in place, but empty pages are
//     left in the tree and reused by later inserts. Real systems
//     (e.g. PostgreSQL nbtree) make the same trade.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// Limits chosen so that several cells always fit in a page, which keeps
// splits meaningful. Larger payloads belong in slotted record pages.
const (
	MaxKey   = 256 // maximum key length in bytes
	MaxValue = 512 // maximum value length in bytes
)

// In-payload node layout.
const (
	offFlags    = 0  // 1 byte: 1 = leaf
	offNKeys    = 1  // uint16
	offNext     = 3  // uint64: next leaf (leaves only)
	offLeftmost = 11 // uint64: leftmost child (interior only)
	offSlots    = 19 // nkeys × uint16 cell offsets, ascending key order
)

const payloadSize = page.Size - page.HeaderSize

// ErrTooLarge is returned when a key or value exceeds the fixed limits.
var ErrTooLarge = errors.New("btree: key or value too large")

// Tree is a B+tree rooted at a named store root slot.
type Tree struct {
	sp       store.Space
	rootSlot int
	root     page.ID
}

// Open returns the tree stored in the given root slot, creating an
// empty tree (and claiming the slot) if it is unset.
func Open(sp store.Space, rootSlot int) (*Tree, error) {
	t := &Tree{sp: sp, rootSlot: rootSlot, root: sp.Root(rootSlot)}
	if t.root == page.Invalid {
		id, h, err := sp.Alloc(page.TypeBTree)
		if err != nil {
			return nil, fmt.Errorf("btree: create root: %w", err)
		}
		n := node{h.Page().Payload()}
		n.init(true)
		h.Release()
		t.root = id
		sp.SetRoot(rootSlot, id)
	}
	return t, nil
}

// startRoot returns the root page a traversal must begin at. The slot
// is re-resolved on every operation rather than trusting the cached
// root: a long-lived Tree over a concurrently-committed space (a
// store.ReadView, say) would otherwise keep descending from a
// pre-split root and silently miss every key that moved to the new
// right sibling. Read-only operations must not mutate the Tree — one
// instance may serve many reader goroutines — so the refreshed root
// stays a local.
func (t *Tree) startRoot() page.ID {
	if id := t.sp.Root(t.rootSlot); id != page.Invalid {
		return id
	}
	return t.root
}

// node wraps a page payload with B+tree accessors.
type node struct{ p []byte }

func (n node) init(leaf bool) {
	n.p[offFlags] = 0
	if leaf {
		n.p[offFlags] = 1
	}
	n.setNKeys(0)
	n.setNext(page.Invalid)
	n.setLeftmost(page.Invalid)
}

func (n node) leaf() bool         { return n.p[offFlags] == 1 }
func (n node) nkeys() int         { return int(binary.LittleEndian.Uint16(n.p[offNKeys:])) }
func (n node) setNKeys(k int)     { binary.LittleEndian.PutUint16(n.p[offNKeys:], uint16(k)) }
func (n node) next() page.ID      { return page.ID(binary.LittleEndian.Uint64(n.p[offNext:])) }
func (n node) setNext(id page.ID) { binary.LittleEndian.PutUint64(n.p[offNext:], uint64(id)) }
func (n node) leftmost() page.ID  { return page.ID(binary.LittleEndian.Uint64(n.p[offLeftmost:])) }
func (n node) setLeftmost(i page.ID) {
	binary.LittleEndian.PutUint64(n.p[offLeftmost:], uint64(i))
}

func (n node) cellOff(i int) int {
	return int(binary.LittleEndian.Uint16(n.p[offSlots+2*i:]))
}

func (n node) setCellOff(i, off int) {
	binary.LittleEndian.PutUint16(n.p[offSlots+2*i:], uint16(off))
}

// Leaf cell: klen u16 | vlen u16 | key | value.
func (n node) leafCell(i int) (key, val []byte) {
	off := n.cellOff(i)
	klen := int(binary.LittleEndian.Uint16(n.p[off:]))
	vlen := int(binary.LittleEndian.Uint16(n.p[off+2:]))
	key = n.p[off+4 : off+4+klen]
	val = n.p[off+4+klen : off+4+klen+vlen]
	return key, val
}

// Interior cell: klen u16 | child u64 | key. The child holds keys >=
// this cell's key; keys below the first cell go to leftmost.
func (n node) intCell(i int) (key []byte, child page.ID) {
	off := n.cellOff(i)
	klen := int(binary.LittleEndian.Uint16(n.p[off:]))
	child = page.ID(binary.LittleEndian.Uint64(n.p[off+2:]))
	key = n.p[off+10 : off+10+klen]
	return key, child
}

// lowWater is the end of the slot array; cells live above minCellOff.
func (n node) lowWater() int { return offSlots + 2*n.nkeys() }

func (n node) minCellOff() int {
	min := payloadSize
	for i := 0; i < n.nkeys(); i++ {
		if off := n.cellOff(i); off < min {
			min = off
		}
	}
	return min
}

func (n node) freeContiguous() int { return n.minCellOff() - n.lowWater() }

// search returns the index of the first key >= key, and whether it is
// an exact match.
func (n node) search(key []byte) (int, bool) {
	lo, hi := 0, n.nkeys()
	for lo < hi {
		mid := (lo + hi) / 2
		var k []byte
		if n.leaf() {
			k, _ = n.leafCell(mid)
		} else {
			k, _ = n.intCell(mid)
		}
		switch bytes.Compare(k, key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// childFor returns the child page to descend into for key.
func (n node) childFor(key []byte) page.ID {
	i, found := n.search(key)
	if found {
		_, c := n.intCell(i)
		return c
	}
	if i == 0 {
		return n.leftmost()
	}
	_, c := n.intCell(i - 1)
	return c
}

// removeCell deletes slot i (cell bytes become garbage until compaction).
func (n node) removeCell(i int) {
	k := n.nkeys()
	copy(n.p[offSlots+2*i:], n.p[offSlots+2*(i+1):offSlots+2*k])
	n.setNKeys(k - 1)
}

// insertRaw places a prebuilt cell at slot index i, compacting first if
// contiguous space is short. Returns false if the node must split.
func (n node) insertRaw(i int, cell []byte) bool {
	need := len(cell) + 2
	if n.freeContiguous() < need {
		n.compact()
		if n.freeContiguous() < need {
			return false
		}
	}
	off := n.minCellOff() - len(cell)
	copy(n.p[off:], cell)
	k := n.nkeys()
	copy(n.p[offSlots+2*(i+1):offSlots+2*(k+1)], n.p[offSlots+2*i:offSlots+2*k])
	n.setNKeys(k + 1)
	n.setCellOff(i, off)
	return true
}

// compact rewrites all cells tightly against the end of the payload.
func (n node) compact() {
	k := n.nkeys()
	cells := make([][]byte, k)
	for i := 0; i < k; i++ {
		off := n.cellOff(i)
		var size int
		klen := int(binary.LittleEndian.Uint16(n.p[off:]))
		if n.leaf() {
			vlen := int(binary.LittleEndian.Uint16(n.p[off+2:]))
			size = 4 + klen + vlen
		} else {
			size = 10 + klen
		}
		cells[i] = append([]byte(nil), n.p[off:off+size]...)
	}
	top := payloadSize
	for i := k - 1; i >= 0; i-- {
		top -= len(cells[i])
		copy(n.p[top:], cells[i])
		n.setCellOff(i, top)
	}
}

func buildLeafCell(key, val []byte) []byte {
	c := make([]byte, 4+len(key)+len(val))
	binary.LittleEndian.PutUint16(c, uint16(len(key)))
	binary.LittleEndian.PutUint16(c[2:], uint16(len(val)))
	copy(c[4:], key)
	copy(c[4+len(key):], val)
	return c
}

func buildIntCell(key []byte, child page.ID) []byte {
	c := make([]byte, 10+len(key))
	binary.LittleEndian.PutUint16(c, uint16(len(key)))
	binary.LittleEndian.PutUint64(c[2:], uint64(child))
	copy(c[10:], key)
	return c
}

// Get returns a copy of the value stored under key.
func (t *Tree) Get(key []byte) (val []byte, found bool, err error) {
	found, err = t.View(key, func(v []byte) error {
		val = append([]byte(nil), v...)
		return nil
	})
	return val, found, err
}

// leafFor descends from the root to the leaf that would hold key and
// returns it pinned.
func (t *Tree) leafFor(key []byte) (store.Handle, node, error) {
	id := t.startRoot()
	for {
		h, err := t.sp.Get(id)
		if err != nil {
			return nil, node{}, err
		}
		n := node{h.Page().Payload()}
		if n.leaf() {
			return h, n, nil
		}
		id = n.childFor(key)
		h.Release()
	}
}

// View calls fn with the value stored under key while the leaf holding
// it is pinned, and reports whether the key was present. The slice
// aliases page memory: it is valid only until fn returns and must not
// be modified or retained.
func (t *Tree) View(key []byte, fn func(val []byte) error) (found bool, err error) {
	h, n, err := t.leafFor(key)
	if err != nil {
		return false, err
	}
	i, ok := n.search(key)
	if ok {
		_, v := n.leafCell(i)
		err = fn(v)
	}
	h.Release()
	return ok, err
}

// ViewSorted looks up n keys in one left-to-right walk: key(i) returns
// the i-th key, and fn(i, val, found) is called for each in turn under
// View's contract (val is nil when the key is absent). key's slice is
// only read before the next call to key, so the caller may reuse one
// buffer. The leaf that answered the previous key stays pinned while
// the next key falls between its first and last key; any other key,
// or an empty leaf left by lazy deletion, re-descends from the root.
// Keys given in ascending order therefore cost one descent per leaf
// they touch instead of one per key; any order gives View's answers.
// A callback error ends the walk and is returned. It allocates
// nothing.
func (t *Tree) ViewSorted(n int, key func(i int) []byte, fn func(i int, val []byte, found bool) error) error {
	var h store.Handle
	var leaf node
	for i := 0; i < n; i++ {
		k := key(i)
		if h != nil && !leaf.covers(k) {
			h.Release()
			h = nil
		}
		if h == nil {
			var err error
			if h, leaf, err = t.leafFor(k); err != nil {
				return err
			}
		}
		var val []byte
		j, ok := leaf.search(k)
		if ok {
			_, val = leaf.leafCell(j)
		}
		if err := fn(i, val, ok); err != nil {
			h.Release()
			return err
		}
	}
	if h != nil {
		h.Release()
	}
	return nil
}

// covers reports whether key lies between the leaf's first and last
// key, so that no other leaf can hold it.
func (n node) covers(key []byte) bool {
	k := n.nkeys()
	if k == 0 {
		return false
	}
	first, _ := n.leafCell(0)
	last, _ := n.leafCell(k - 1)
	return bytes.Compare(first, key) <= 0 && bytes.Compare(key, last) <= 0
}

// Put inserts or replaces the value under key.
func (t *Tree) Put(key, val []byte) error {
	if len(key) == 0 || len(key) > MaxKey || len(val) > MaxValue {
		return ErrTooLarge
	}
	t.root = t.startRoot() // Put is writer-exclusive; refresh the cache
	sep, right, err := t.put(t.root, key, val)
	if err != nil {
		return err
	}
	if right == page.Invalid {
		return nil
	}
	// Root split: make a new root with the old root as leftmost child.
	newID, h, err := t.sp.Alloc(page.TypeBTree)
	if err != nil {
		return err
	}
	n := node{h.Page().Payload()}
	n.init(false)
	n.setLeftmost(t.root)
	n.insertRaw(0, buildIntCell(sep, right))
	h.Release()
	t.root = newID
	t.sp.SetRoot(t.rootSlot, newID)
	return nil
}

// put inserts into the subtree rooted at id. If the node split, it
// returns the separator key and the new right sibling's page ID.
func (t *Tree) put(id page.ID, key, val []byte) (sep []byte, right page.ID, err error) {
	h, err := t.sp.Get(id)
	if err != nil {
		return nil, page.Invalid, err
	}
	defer h.Release()
	n := node{h.Page().Payload()}

	if n.leaf() {
		i, found := n.search(key)
		if found {
			n.removeCell(i)
		}
		h.MarkDirty()
		if n.insertRaw(i, buildLeafCell(key, val)) {
			return nil, page.Invalid, nil
		}
		return t.splitLeaf(h, n, i, key, val)
	}

	childSep, childRight, err := t.put(n.childFor(key), key, val)
	if err != nil {
		return nil, page.Invalid, err
	}
	if childRight == page.Invalid {
		return nil, page.Invalid, nil
	}
	i, _ := n.search(childSep)
	h.MarkDirty()
	if n.insertRaw(i, buildIntCell(childSep, childRight)) {
		return nil, page.Invalid, nil
	}
	return t.splitInterior(h, n, i, childSep, childRight)
}

// splitLeaf splits a full leaf while inserting (key,val) at index i.
func (t *Tree) splitLeaf(h store.Handle, n node, i int, key, val []byte) ([]byte, page.ID, error) {
	k := n.nkeys()
	keys := make([][]byte, 0, k+1)
	vals := make([][]byte, 0, k+1)
	for j := 0; j < k; j++ {
		ck, cv := n.leafCell(j)
		keys = append(keys, append([]byte(nil), ck...))
		vals = append(vals, append([]byte(nil), cv...))
	}
	keys = append(keys[:i], append([][]byte{append([]byte(nil), key...)}, keys[i:]...)...)
	vals = append(vals[:i], append([][]byte{append([]byte(nil), val...)}, vals[i:]...)...)

	mid := (len(keys) + 1) / 2
	rightID, rh, err := t.sp.Alloc(page.TypeBTree)
	if err != nil {
		return nil, page.Invalid, err
	}
	defer rh.Release()
	rn := node{rh.Page().Payload()}
	rn.init(true)
	rn.setNext(n.next())

	n.init(true)
	n.setNext(rightID)
	for j := 0; j < mid; j++ {
		if !(node{n.p}).insertRaw(j, buildLeafCell(keys[j], vals[j])) {
			return nil, page.Invalid, errors.New("btree: leaf split left overflow")
		}
	}
	for j := mid; j < len(keys); j++ {
		if !rn.insertRaw(j-mid, buildLeafCell(keys[j], vals[j])) {
			return nil, page.Invalid, errors.New("btree: leaf split right overflow")
		}
	}
	h.MarkDirty()
	return append([]byte(nil), keys[mid]...), rightID, nil
}

// splitInterior splits a full interior node while inserting (key,child)
// at index i. The middle separator is promoted: it does not remain in
// either half, and its child becomes the right half's leftmost pointer.
func (t *Tree) splitInterior(h store.Handle, n node, i int, key []byte, child page.ID) ([]byte, page.ID, error) {
	k := n.nkeys()
	keys := make([][]byte, 0, k+1)
	children := make([]page.ID, 0, k+1)
	for j := 0; j < k; j++ {
		ck, cc := n.intCell(j)
		keys = append(keys, append([]byte(nil), ck...))
		children = append(children, cc)
	}
	keys = append(keys[:i], append([][]byte{append([]byte(nil), key...)}, keys[i:]...)...)
	children = append(children[:i], append([]page.ID{child}, children[i:]...)...)

	mid := len(keys) / 2
	promoted := keys[mid]
	leftmostRight := children[mid]

	rightID, rh, err := t.sp.Alloc(page.TypeBTree)
	if err != nil {
		return nil, page.Invalid, err
	}
	defer rh.Release()
	rn := node{rh.Page().Payload()}
	rn.init(false)
	rn.setLeftmost(leftmostRight)

	oldLeftmost := n.leftmost()
	n.init(false)
	n.setLeftmost(oldLeftmost)
	for j := 0; j < mid; j++ {
		if !(node{n.p}).insertRaw(j, buildIntCell(keys[j], children[j])) {
			return nil, page.Invalid, errors.New("btree: interior split left overflow")
		}
	}
	for j := mid + 1; j < len(keys); j++ {
		if !rn.insertRaw(j-mid-1, buildIntCell(keys[j], children[j])) {
			return nil, page.Invalid, errors.New("btree: interior split right overflow")
		}
	}
	h.MarkDirty()
	return promoted, rightID, nil
}

// Delete removes key from the tree, reporting whether it was present.
// Pages are not merged or freed (lazy deletion).
func (t *Tree) Delete(key []byte) (bool, error) {
	h, n, err := t.leafFor(key)
	if err != nil {
		return false, err
	}
	i, ok := n.search(key)
	if ok {
		n.removeCell(i)
		h.MarkDirty()
	}
	h.Release()
	return ok, nil
}

// Scan visits every entry with from <= key < to in ascending key order.
// A nil from starts at the smallest key; a nil to runs to the end. The
// callback returns false to stop early. The key and value slices passed
// to fn alias page memory and must not be retained.
func (t *Tree) Scan(from, to []byte, fn func(key, val []byte) (bool, error)) error {
	id := t.startRoot()
	// Descend to the leaf that would contain from.
	for {
		h, err := t.sp.Get(id)
		if err != nil {
			return err
		}
		n := node{h.Page().Payload()}
		if n.leaf() {
			h.Release()
			break
		}
		var next page.ID
		if from == nil {
			next = n.leftmost()
		} else {
			next = n.childFor(from)
		}
		h.Release()
		id = next
	}
	for id != page.Invalid {
		h, err := t.sp.Get(id)
		if err != nil {
			return err
		}
		n := node{h.Page().Payload()}
		start := 0
		if from != nil {
			start, _ = n.search(from)
		}
		for i := start; i < n.nkeys(); i++ {
			k, v := n.leafCell(i)
			if to != nil && bytes.Compare(k, to) >= 0 {
				h.Release()
				return nil
			}
			cont, err := fn(k, v)
			if err != nil || !cont {
				h.Release()
				return err
			}
		}
		from = nil
		next := n.next()
		h.Release()
		id = next
	}
	return nil
}

// Count returns the number of entries (a full scan; used by tests and
// tools, not by hot paths).
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.Scan(nil, nil, func(_, _ []byte) (bool, error) { n++; return true, nil })
	return n, err
}

// Root returns the tree's current root page (diagnostics).
func (t *Tree) Root() page.ID { return t.root }

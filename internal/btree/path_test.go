package btree

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// pathSpace is a store.Space with the PathGetter capability that
// records how each descent pinned its pages.
type pathSpace struct {
	*store.Store
	gets  int
	paths []string // key of every GetPath call
}

func (s *pathSpace) Get(id page.ID) (store.Handle, error) {
	s.gets++
	return s.Store.Get(id)
}

func (s *pathSpace) GetPath(id page.ID, key PathKey) (store.Handle, error) {
	s.paths = append(s.paths, string(key.Bytes()))
	return s.Store.Get(id)
}

// TestDescentUsesPathGetter: over a PathGetter, every page of a point
// descent is pinned through GetPath with the descent's key; a key
// longer than MaxPathKey, and a space without the capability, pin
// with Get. The local store has no such capability.
func TestDescentUsesPathGetter(t *testing.T) {
	if _, ok := store.Space(&store.Store{}).(PathGetter); ok {
		t.Fatal("the local store claims the path capability")
	}
	tr, st := openTree(t)
	for i := 0; i < 1000; i++ {
		if err := tr.Put(U64Key(uint64(i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sp := &pathSpace{Store: st}
	ptr, err := Open(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := U64Key(500)
	v, ok, err := ptr.Get(key)
	if err != nil || !ok || v[0] != byte(500%256) {
		t.Fatalf("get over a path space: %v %v %v", v, ok, err)
	}
	if sp.gets != 0 || len(sp.paths) < 2 {
		t.Fatalf("descent made %d Gets and %d GetPaths, want only GetPaths, one per level", sp.gets, len(sp.paths))
	}
	for _, k := range sp.paths {
		if k != string(key) {
			t.Fatalf("GetPath carried key %x, want %x", k, key)
		}
	}

	long := append(U64Key(7), make([]byte, MaxPathKey)...)
	if err := ptr.Put(long, []byte{1}); err != nil {
		t.Fatal(err)
	}
	sp.gets, sp.paths = 0, nil
	if _, ok, err := ptr.Get(long); err != nil || !ok {
		t.Fatalf("long key: %v %v", ok, err)
	}
	if len(sp.paths) != 0 || sp.gets < 2 {
		t.Fatalf("a %d-byte key made %d GetPaths and %d Gets, want Gets only", len(long), len(sp.paths), sp.gets)
	}
}

// TestChildFor: the server-side step follows the same child as the
// descent and refuses leaves, other page types and interior pages
// whose slots point outside the payload.
func TestChildFor(t *testing.T) {
	tr, st := openTree(t)
	for i := 0; i < 1000; i++ {
		if err := tr.Put(U64Key(uint64(i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	h, err := st.Get(tr.startRoot())
	if err != nil {
		t.Fatal(err)
	}
	root := *h.Page()
	h.Release()
	key := U64Key(777)
	child, ok := ChildFor(&root, key)
	if !ok {
		t.Fatal("ChildFor refused an interior root")
	}
	lh, n, err := tr.leafFor(key)
	if err != nil {
		t.Fatal(err)
	}
	leaf := *lh.Page()
	lh.Release()
	if !bytes.Equal(leaf.Bytes(), mustGet(t, st, child).Bytes()) || !n.leaf() {
		t.Fatalf("ChildFor chose page %d, not the descent's leaf", child)
	}
	if _, ok := ChildFor(&leaf, key); ok {
		t.Fatal("ChildFor stepped below a leaf")
	}
	if _, ok := ChildFor(page.New(page.TypeSlotted), key); ok {
		t.Fatal("ChildFor stepped through a slotted page")
	}
	bad := root
	binary.LittleEndian.PutUint16(bad.Payload()[offSlots:], uint16(payloadSize-4))
	if _, ok := ChildFor(&bad, key); ok {
		t.Fatal("ChildFor followed a cell past the payload")
	}
	binary.LittleEndian.PutUint16(bad.Payload()[offNKeys:], 60000)
	if _, ok := ChildFor(&bad, key); ok {
		t.Fatal("ChildFor trusted a slot array longer than the page")
	}
}

func mustGet(t *testing.T, st *store.Store, id page.ID) *page.Page {
	t.Helper()
	h, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	p := *h.Page()
	return &p
}

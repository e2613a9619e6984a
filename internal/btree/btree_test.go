package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

func openTree(t *testing.T) (*Tree, *store.Store) {
	t.Helper()
	s, err := store.Open(filepath.Join(t.TempDir(), "db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	tr, err := Open(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, s
}

func TestPutGetSingle(t *testing.T) {
	tr, _ := openTree(t)
	if err := tr.Put([]byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("key"))
	if err != nil || !ok || string(v) != "value" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	_, ok, err = tr.Get([]byte("missing"))
	if err != nil || ok {
		t.Fatalf("missing key found")
	}
}

func TestPutReplacesValue(t *testing.T) {
	tr, _ := openTree(t)
	if err := tr.Put([]byte("k"), []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k"), []byte("second, and longer")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tr.Get([]byte("k"))
	if !ok || string(v) != "second, and longer" {
		t.Fatalf("got %q", v)
	}
	if n, _ := tr.Count(); n != 1 {
		t.Fatalf("count = %d", n)
	}
}

func TestManyInsertsSplitAndOrder(t *testing.T) {
	tr, _ := openTree(t)
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tr.Put(U64Key(uint64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Every key retrievable.
	for i := 0; i < n; i += 97 {
		v, ok, err := tr.Get(U64Key(uint64(i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
	// Full scan is sorted and complete.
	var prev []byte
	count := 0
	err := tr.Scan(nil, nil, func(k, v []byte) (bool, error) {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order at %x", k)
		}
		prev = append(prev[:0], k...)
		count++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan visited %d, want %d", count, n)
	}
}

func TestRangeScanBounds(t *testing.T) {
	tr, _ := openTree(t)
	for i := 0; i < 100; i++ {
		if err := tr.Put(U64Key(uint64(i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := tr.Scan(U64Key(10), U64Key(20), func(k, v []byte) (bool, error) {
		got = append(got, U64FromKey(k))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range scan got %v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr, _ := openTree(t)
	for i := 0; i < 50; i++ {
		if err := tr.Put(U64Key(uint64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := tr.Scan(nil, nil, func(k, v []byte) (bool, error) {
		n++
		return n < 7, nil
	})
	if err != nil || n != 7 {
		t.Fatalf("early stop visited %d (%v)", n, err)
	}
}

// TestScanDescendsOnce: a Scan descends once, through GetPath over a
// path-capable space, and walks on from the leaf its descent ends at.
// So a full Scan pins height − 1 + leaves pages, and a Scan within one
// leaf pins one descent's.
func TestScanDescendsOnce(t *testing.T) {
	tr, st := openTree(t)
	val := make([]byte, 200)
	for i := 0; i < 5000; i++ {
		if err := tr.Put(U64Key(uint64(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	sp := &pathSpace{Store: st}
	ptr, err := Open(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ptr.View(U64Key(0), func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	height := len(sp.paths)
	// Count the leaves along the sibling chain, uncounted.
	h, n, err := tr.leafFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 1
	for next := n.next(); next != page.Invalid; leaves++ {
		h.Release()
		if h, err = st.Get(next); err != nil {
			t.Fatal(err)
		}
		next = node{h.Page().Payload()}.next()
	}
	h.Release()
	if height < 3 {
		t.Fatalf("tree is %d high, want at least 3", height)
	}

	sp.gets, sp.paths = 0, nil
	visited := 0
	if err := ptr.Scan(nil, nil, func(_, _ []byte) (bool, error) { visited++; return true, nil }); err != nil {
		t.Fatal(err)
	}
	if visited != 5000 || len(sp.paths) != height || sp.gets != leaves-1 {
		t.Fatalf("full Scan visited %d keys with %d GetPaths and %d Gets, want 5000 with %d and %d (height %d, %d leaves)",
			visited, len(sp.paths), sp.gets, height, leaves-1, height, leaves)
	}

	sp.gets, sp.paths = 0, nil
	if err := ptr.Scan(U64Key(2500), U64Key(2501), func(_, _ []byte) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	if len(sp.paths) != height || sp.gets != 0 {
		t.Fatalf("one-key Scan made %d GetPaths and %d Gets, want %d and 0 (one descent)", len(sp.paths), sp.gets, height)
	}
}

func TestDelete(t *testing.T) {
	tr, _ := openTree(t)
	for i := 0; i < 1000; i++ {
		if err := tr.Put(U64Key(uint64(i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 2 {
		ok, err := tr.Delete(U64Key(uint64(i)))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	ok, err := tr.Delete(U64Key(0))
	if err != nil || ok {
		t.Fatal("second delete of same key reported success")
	}
	for i := 0; i < 1000; i++ {
		_, found, err := tr.Get(U64Key(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 1; found != want {
			t.Fatalf("key %d: found=%v want=%v", i, found, want)
		}
	}
	if n, _ := tr.Count(); n != 500 {
		t.Fatalf("count = %d", n)
	}
}

func TestDeleteAllThenReinsert(t *testing.T) {
	tr, _ := openTree(t)
	for i := 0; i < 800; i++ {
		if err := tr.Put(U64Key(uint64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 800; i++ {
		if ok, err := tr.Delete(U64Key(uint64(i))); err != nil || !ok {
			t.Fatal(err)
		}
	}
	if n, _ := tr.Count(); n != 0 {
		t.Fatalf("count after delete-all = %d", n)
	}
	for i := 0; i < 800; i++ {
		if err := tr.Put(U64Key(uint64(i)), []byte("again")); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := tr.Count(); n != 800 {
		t.Fatalf("count after reinsert = %d", n)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db")
	s, err := store.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Put(U64Key(uint64(i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tr2, err := Open(s2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 111 {
		v, ok, err := tr2.Get(U64Key(uint64(i)))
		if err != nil || !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("key %d after reopen: %q %v %v", i, v, ok, err)
		}
	}
}

func TestTooLargeRejected(t *testing.T) {
	tr, _ := openTree(t)
	if err := tr.Put(make([]byte, MaxKey+1), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized key: %v", err)
	}
	if err := tr.Put([]byte("k"), make([]byte, MaxValue+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized value: %v", err)
	}
	if err := tr.Put(nil, []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("empty key: %v", err)
	}
	// Exactly at the limits is fine.
	if err := tr.Put(make([]byte, MaxKey), make([]byte, MaxValue)); err != nil {
		t.Fatal(err)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr, _ := openTree(t)
	rng := rand.New(rand.NewSource(7))
	ref := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := make([]byte, 1+rng.Intn(40))
		for j := range k {
			k[j] = byte('a' + rng.Intn(26))
		}
		v := fmt.Sprintf("val-%d", i)
		ref[string(k)] = v
		if err := tr.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for k, want := range ref {
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("key %q: %q %v %v", k, v, ok, err)
		}
	}
	if n, _ := tr.Count(); n != len(ref) {
		t.Fatalf("count = %d, want %d", n, len(ref))
	}
	// Scan order must match sorted reference keys.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	err := tr.Scan(nil, nil, func(k, v []byte) (bool, error) {
		if string(k) != keys[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, k, keys[i])
		}
		i++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultipleTreesShareStore(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := Open(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := a.Put(U64Key(uint64(i)), []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := b.Put(U64Key(uint64(i)), []byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	va, _, _ := a.Get(U64Key(42))
	vb, _, _ := b.Get(U64Key(42))
	if string(va) != "a" || string(vb) != "b" {
		t.Fatalf("trees interfere: %q %q", va, vb)
	}
}

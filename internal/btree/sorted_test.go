package btree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// wideKey is v's big-endian key padded to 64 bytes, so that interior
// nodes hold few separators and a few thousand keys build a
// three-level tree.
func wideKey(v uint64) []byte {
	k := make([]byte, 64)
	binary.BigEndian.PutUint64(k, v)
	return k
}

// sortedFixture builds a tree holding the even values 0, 2, ...,
// 2(n-1) inserted in random order, then deletes the values in
// [delFrom, delTo), so that whole leaves are left empty.
func sortedFixture(tb testing.TB, n int, delFrom, delTo uint64) *Tree {
	tb.Helper()
	s, err := store.Open(filepath.Join(tb.TempDir(), "db"), nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	tr, err := Open(s, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		v := uint64(2 * i)
		if err := tr.Put(wideKey(v), []byte(fmt.Sprintf("value %036d", v))); err != nil {
			tb.Fatal(err)
		}
	}
	for v := delFrom &^ 1; v < delTo; v += 2 {
		if _, err := tr.Delete(wideKey(v)); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// leafSpan is one leaf's key count and, when it has keys, its first
// and last value.
type leafSpan struct {
	n           int
	first, last uint64
}

// leaves returns the leaves' spans, left to right, and the tree's
// height.
func leaves(tb testing.TB, tr *Tree) (spans []leafSpan, height int) {
	tb.Helper()
	id := tr.startRoot()
	for height = 1; ; height++ {
		h, err := tr.sp.Get(id)
		if err != nil {
			tb.Fatal(err)
		}
		n := node{h.Page().Payload()}
		leaf, next := n.leaf(), n.leftmost()
		h.Release()
		if leaf {
			break
		}
		id = next
	}
	for id != page.Invalid {
		h, err := tr.sp.Get(id)
		if err != nil {
			tb.Fatal(err)
		}
		n := node{h.Page().Payload()}
		sp := leafSpan{n: n.nkeys()}
		if sp.n > 0 {
			first, _ := n.leafCell(0)
			last, _ := n.leafCell(sp.n - 1)
			sp.first, sp.last = binary.BigEndian.Uint64(first), binary.BigEndian.Uint64(last)
		}
		spans = append(spans, sp)
		id = n.next()
		h.Release()
	}
	return spans, height
}

// gapValues returns, for every pair of adjacent non-empty leaves, the
// values strictly between the left leaf's last key and the right
// leaf's first key.
func gapValues(tb testing.TB, tr *Tree) []uint64 {
	spans, _ := leaves(tb, tr)
	var gaps []uint64
	var prev *leafSpan
	for i := range spans {
		if spans[i].n == 0 {
			continue
		}
		if prev != nil {
			for v := prev.last + 1; v < spans[i].first; v++ {
				gaps = append(gaps, v)
			}
		}
		prev = &spans[i]
	}
	return gaps
}

// diffSorted checks ViewSorted over keys against one View per key:
// every key is answered once, in list order, with View's value.
func diffSorted(tb testing.TB, tr *Tree, keys [][]byte) {
	tb.Helper()
	type answer struct {
		found bool
		val   string
	}
	var got []answer
	err := tr.ViewSorted(len(keys), func(i int) []byte { return keys[i] }, func(i int, val []byte, found bool) error {
		if i != len(got) {
			return fmt.Errorf("answer for key %d, want key %d", i, len(got))
		}
		got = append(got, answer{found, string(val)})
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(got) != len(keys) {
		tb.Fatalf("%d answers for %d keys", len(got), len(keys))
	}
	for i, k := range keys {
		var want answer
		var err error
		want.found, err = tr.View(k, func(val []byte) error { want.val = string(val); return nil })
		if err != nil {
			tb.Fatal(err)
		}
		if got[i] != want {
			tb.Fatalf("key %d (%d): ViewSorted %+v, View %+v", i, binary.BigEndian.Uint64(k), got[i], want)
		}
	}
}

// keysOf returns the wide keys of vals.
func keysOf(vals ...uint64) [][]byte {
	keys := make([][]byte, len(vals))
	for i, v := range vals {
		keys[i] = wideKey(v)
	}
	return keys
}

// TestViewSortedMatchesView holds the sorted walk to per-key View on a
// three-level tree, after splits and after deletes that empty whole
// leaves: present and absent keys, keys in the gap between two leaves,
// the first and last key, duplicates, n = 0 and n = 1, and keys out of
// order.
func TestViewSortedMatchesView(t *testing.T) {
	const n = 3000
	tr := sortedFixture(t, n, 0, 0)
	if _, height := leaves(t, tr); height < 3 {
		t.Fatalf("fixture is %d levels high, want at least 3", height)
	}
	check := func(t *testing.T) {
		// Every value from below the first key to past the last: the
		// odd ones are absent, and each leaf's last key + 1 lies in the
		// gap before the next leaf.
		all := make([]uint64, 0, 2*n+2)
		for v := uint64(0); v < 2*n+2; v++ {
			all = append(all, v)
		}
		diffSorted(t, tr, keysOf(all...))
		diffSorted(t, tr, nil)
		diffSorted(t, tr, keysOf(0))
		diffSorted(t, tr, keysOf(2*n-2))
		diffSorted(t, tr, keysOf(2*n+7))
		diffSorted(t, tr, keysOf(0, 0, 1, 2*n-2, 2*n-2, 2*n-1))
		gaps := gapValues(t, tr)
		if len(gaps) == 0 {
			t.Fatal("no gaps between leaves")
		}
		diffSorted(t, tr, keysOf(gaps...))
		rng := rand.New(rand.NewSource(2))
		for round := 0; round < 20; round++ {
			some := make([]uint64, rng.Intn(400))
			for i := range some {
				some[i] = uint64(rng.Intn(2*n + 10))
			}
			if round%2 == 0 {
				slices.Sort(some)
			}
			diffSorted(t, tr, keysOf(some...))
		}
	}
	t.Run("after splits", check)
	for v := uint64(1000); v < 1800; v += 2 {
		if _, err := tr.Delete(wideKey(v)); err != nil {
			t.Fatal(err)
		}
	}
	spans, _ := leaves(t, tr)
	if !slices.ContainsFunc(spans, func(sp leafSpan) bool { return sp.n == 0 }) {
		t.Fatal("no empty leaf after the deletes")
	}
	t.Run("after deletes", check)
}

// FuzzViewSorted holds ViewSorted to per-key View over fuzzed key sets
// on a three-level tree with empty leaves. Each two input bytes name
// one key; the first byte, when odd, sorts the set first.
func FuzzViewSorted(f *testing.F) {
	tr := sortedFixture(f, 3000, 1000, 1800)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{1, 0x03, 0xe8, 0x03, 0xe9, 0x07, 0x08, 0x17, 0x6e})
	f.Add([]byte{0, 0x17, 0x6e, 0x00, 0x01, 0x0b, 0xb8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			diffSorted(t, tr, nil)
			return
		}
		vals := make([]uint64, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			vals = append(vals, uint64(binary.BigEndian.Uint16(data[i:]))%6100)
		}
		if data[0]%2 == 1 {
			slices.Sort(vals)
		}
		diffSorted(t, tr, keysOf(vals...))
	})
}

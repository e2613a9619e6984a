package objstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"hypermodel/internal/btree"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/slotted"
	"hypermodel/internal/storage/store"
)

// plant overwrites oid's record with rec through the slotted layer, or
// kills its slot when rec is nil, leaving the object table pointing at
// it.
func plant(t *testing.T, os *Store, oid OID, rec []byte) {
	t.Helper()
	r, err := os.lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	h, err := os.sp.Get(r.pg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	sp := slotted.Wrap(h.Page())
	var ok bool
	if rec == nil {
		ok = sp.Delete(int(r.slot))
	} else {
		ok = sp.Update(int(r.slot), rec)
	}
	if !ok {
		t.Fatalf("could not plant %x at %d/%d", rec, r.pg, r.slot)
	}
	h.MarkDirty()
}

// TestReadsRejectCorruptRecords plants records no writer produces and
// checks that every read form fails with an error instead of indexing
// past the record, that a stale address is still ErrNotFound, and that
// a neighbour on the same page stays readable.
func TestReadsRejectCorruptRecords(t *testing.T) {
	noChain := make([]byte, overflowStubSize)
	noChain[0] = flagOverflow
	binary.LittleEndian.PutUint32(noChain[1:], 5000)
	binary.LittleEndian.PutUint64(noChain[5:], uint64(page.Invalid))
	cases := []struct {
		name     string
		rec      []byte // nil: dead slot
		notFound bool
	}{
		{"zero-length slot", []byte{}, false},
		{"flag byte only of an overflow stub", []byte{flagOverflow}, false},
		{"short overflow stub", []byte{flagOverflow, 1, 2, 3, 4, 5, 6}, false},
		{"long overflow stub", make([]byte, overflowStubSize+1), false},
		{"overflow stub without a chain", noChain, false},
		{"unknown flag", []byte{7, 1, 2, 3}, false},
		{"dead slot", nil, true},
	}
	cases[3].rec[0] = flagOverflow
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			os, _ := openStore(t, Options{})
			body := bytes.Repeat([]byte("x"), 40)
			good, err := os.Put([]byte("neighbour"), InvalidOID)
			if err != nil {
				t.Fatal(err)
			}
			bad, err := os.Put(body, InvalidOID)
			if err != nil {
				t.Fatal(err)
			}
			if same, err := os.SamePage(good, bad); err != nil || !same {
				t.Fatalf("fixture objects not on one page: %v %v", same, err)
			}
			plant(t, os, bad, tc.rec)

			nop := func([]byte) error { return nil }
			reads := map[string]func() error{
				"View":      func() error { return os.View(bad, nop) },
				"Get":       func() error { _, err := os.Get(bad); return err },
				"GetBatch":  func() error { _, err := os.GetBatch([]OID{good, bad}); return err },
				"ViewBatch": func() error { return os.ViewBatch([]OID{bad, good}, func(int, []byte) error { return nil }) },
				"Scan":      func() error { return os.Scan(func(OID, []byte) (bool, error) { return true, nil }) },
			}
			for name, read := range reads {
				err := read()
				if err == nil {
					t.Fatalf("%s accepted the record", name)
				}
				if got := errors.Is(err, ErrNotFound); got != tc.notFound {
					t.Fatalf("%s: ErrNotFound = %v, want %v (%v)", name, got, tc.notFound, err)
				}
				if !tc.notFound && !strings.Contains(err.Error(), "objstore: corrupt record") {
					t.Fatalf("%s: error does not name the corruption: %v", name, err)
				}
			}
			if got, err := os.Get(good); err != nil || string(got) != "neighbour" {
				t.Fatalf("neighbour after corruption: %q %v", got, err)
			}
		})
	}
}

// TestViewMatchesGet checks the in-place forms against the copying
// ones over inline and overflow objects, that a batch visits every
// index exactly once, and that the callback's error ends the read.
func TestViewMatchesGet(t *testing.T) {
	os, _ := openStore(t, Options{})
	var oids []OID
	for i := 0; i < 60; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 10+i)
		if i%20 == 7 {
			data = bytes.Repeat([]byte{byte(i)}, 9000+i) // spills
		}
		oid, err := os.Put(data, InvalidOID)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	want, err := os.GetBatch(oids)
	if err != nil {
		t.Fatal(err)
	}
	for i, oid := range oids {
		err := os.View(oid, func(data []byte) error {
			if !bytes.Equal(data, want[i]) {
				t.Errorf("View(%d) differs from GetBatch", oid)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Reversed, so list order and page order disagree.
	rev := make([]OID, len(oids))
	for i, oid := range oids {
		rev[len(oids)-1-i] = oid
	}
	seen := make([]int, len(rev))
	err = os.ViewBatch(rev, func(i int, data []byte) error {
		seen[i]++
		if !bytes.Equal(data, want[len(oids)-1-i]) {
			t.Errorf("ViewBatch item %d differs from GetBatch", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("ViewBatch visited item %d %d times", i, n)
		}
	}
	stop := errors.New("stop")
	calls := 0
	err = os.ViewBatch(oids, func(int, []byte) error { calls++; return stop })
	if !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("callback error: %v after %d calls", err, calls)
	}
}

// TestViewAllocs pins the point of View: reading an inline object in
// place allocates nothing, in this package, the B+tree or the page
// store.
func TestViewAllocs(t *testing.T) {
	os, _ := openStore(t, Options{})
	oid, err := os.Put(bytes.Repeat([]byte("v"), 100), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	got := testing.AllocsPerRun(200, func() {
		if err := os.View(oid, func(data []byte) error { n += len(data); return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("View allocates %.0f times, want 0", got)
	}
}

// countingSpace counts page Gets.
type countingSpace struct {
	store.Space
	gets int
}

func (c *countingSpace) Get(id page.ID) (store.Handle, error) {
	c.gets++
	return c.Space.Get(id)
}

// TestViewSortedAllocs pins the object-table walk under ViewBatch: over
// ascending OIDs it pins each table leaf once for the whole run of
// keys the leaf holds, and allocates nothing.
func TestViewSortedAllocs(t *testing.T) {
	os, st := openStore(t, Options{})
	const n = 2000
	keys := make([][]byte, n)
	for i := range keys {
		oid, err := os.Put([]byte("v"), InvalidOID)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = oidKey(oid)
	}
	cs := &countingSpace{Space: st}
	table, err := btree.Open(cs, 0) // openStore's object-table slot
	if err != nil {
		t.Fatal(err)
	}
	// A View descends the tree; a Scan pins the inner pages of one
	// descent and then each leaf, so the two counts give the height and
	// the leaves.
	if _, err := table.View(keys[0], func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	height := cs.gets
	cs.gets = 0
	if err := table.Scan(nil, nil, func(_, _ []byte) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	leaves := cs.gets - height + 1
	if height < 2 || leaves < 3 {
		t.Fatalf("object table is %d high with %d leaves; want a multi-leaf tree", height, leaves)
	}
	walk := func() {
		err := table.ViewSorted(n, func(i int) []byte { return keys[i] }, func(_ int, _ []byte, found bool) error {
			if !found {
				t.Fatal("object-table entry missing")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	cs.gets = 0
	walk()
	if want := leaves * height; cs.gets != want {
		t.Fatalf("ViewSorted over %d ascending keys made %d page gets, want %d (one descent per leaf)", n, cs.gets, want)
	}
	if got := testing.AllocsPerRun(20, walk); got != 0 {
		t.Fatalf("ViewSorted allocates %.0f times, want 0", got)
	}
}

package objstore

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

func openStore(t *testing.T, opts Options) (*Store, *store.Store) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	os, err := Open(st, 0, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return os, st
}

func TestPutGetRoundTrip(t *testing.T) {
	os, _ := openStore(t, Options{})
	oid, err := os.Put([]byte("object body"), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	if oid == InvalidOID {
		t.Fatal("allocated the invalid OID")
	}
	got, err := os.Get(oid)
	if err != nil || string(got) != "object body" {
		t.Fatalf("get = %q %v", got, err)
	}
}

func TestOIDsAreMonotonic(t *testing.T) {
	os, _ := openStore(t, Options{})
	var last OID
	for i := 0; i < 100; i++ {
		oid, err := os.Put([]byte{byte(i)}, InvalidOID)
		if err != nil {
			t.Fatal(err)
		}
		if oid <= last {
			t.Fatalf("OID %d after %d", oid, last)
		}
		last = oid
	}
}

func TestGetMissing(t *testing.T) {
	os, _ := openStore(t, Options{})
	if _, err := os.Get(12345); err == nil {
		t.Fatal("get of unknown OID succeeded")
	}
	ok, err := os.Exists(12345)
	if err != nil || ok {
		t.Fatalf("exists = %v %v", ok, err)
	}
}

func TestLargeObjectOverflow(t *testing.T) {
	os, _ := openStore(t, Options{})
	// A 400×400 bitmap like the paper's largest FormNode: 20 kB.
	big := make([]byte, 20000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	oid, err := os.Put(big, InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large object corrupted")
	}
}

func TestUpdateInPlacePreservesOID(t *testing.T) {
	os, _ := openStore(t, Options{})
	oid, err := os.Put([]byte("version1 text"), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Update(oid, []byte("version-2 text")); err != nil {
		t.Fatal(err)
	}
	got, err := os.Get(oid)
	if err != nil || string(got) != "version-2 text" {
		t.Fatalf("after update: %q %v", got, err)
	}
}

func TestUpdateGrowAcrossOverflowBoundary(t *testing.T) {
	os, _ := openStore(t, Options{})
	oid, err := os.Put([]byte("small"), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("B"), 30000)
	if err := os.Update(oid, big); err != nil {
		t.Fatal(err)
	}
	got, err := os.Get(oid)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatal("grow to overflow failed")
	}
	// And shrink back.
	if err := os.Update(oid, []byte("tiny again")); err != nil {
		t.Fatal(err)
	}
	got, err = os.Get(oid)
	if err != nil || string(got) != "tiny again" {
		t.Fatalf("shrink back: %q %v", got, err)
	}
}

func TestDeleteFreesAndForgets(t *testing.T) {
	os, st := openStore(t, Options{})
	big := bytes.Repeat([]byte("D"), 25000)
	oid, err := os.Put(big, InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	pagesBefore := st.PageCount()
	if err := os.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Get(oid); err == nil {
		t.Fatal("deleted object readable")
	}
	// Re-inserting a same-size object must reuse freed chain pages, not
	// grow the file.
	if _, err := os.Put(big, InvalidOID); err != nil {
		t.Fatal(err)
	}
	if got := st.PageCount(); got > pagesBefore {
		t.Fatalf("file grew from %d to %d pages despite free list", pagesBefore, got)
	}
}

func TestClusteringPlacesNearParent(t *testing.T) {
	os, _ := openStore(t, Options{Clustering: true})
	parent, err := os.Put(bytes.Repeat([]byte("p"), 80), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave children of this parent with unrelated allocations;
	// near-hint must keep children on the parent's page anyway.
	for i := 0; i < 5; i++ {
		child, err := os.Put(bytes.Repeat([]byte("c"), 80), parent)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Put(bytes.Repeat([]byte("x"), 80), InvalidOID); err != nil {
			t.Fatal(err)
		}
		same, err := os.SamePage(parent, child)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Fatalf("child %d not clustered with parent", i)
		}
	}
}

func TestClusteringDisabledIgnoresNear(t *testing.T) {
	os, _ := openStore(t, Options{Clustering: false})
	parent, err := os.Put(bytes.Repeat([]byte("p"), 1000), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the cursor page and move on so the parent's page has room
	// but is not the cursor.
	for i := 0; i < 20; i++ {
		if _, err := os.Put(bytes.Repeat([]byte("f"), 1000), InvalidOID); err != nil {
			t.Fatal(err)
		}
	}
	child, err := os.Put(bytes.Repeat([]byte("c"), 100), parent)
	if err != nil {
		t.Fatal(err)
	}
	same, err := os.SamePage(parent, child)
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Fatal("near-hint honored with clustering disabled")
	}
}

func TestScanVisitsAllInOIDOrder(t *testing.T) {
	os, _ := openStore(t, Options{})
	want := map[OID][]byte{}
	for i := 0; i < 300; i++ {
		data := []byte{byte(i), byte(i >> 8)}
		oid, err := os.Put(data, InvalidOID)
		if err != nil {
			t.Fatal(err)
		}
		want[oid] = data
	}
	var lastOID OID
	n := 0
	err := os.Scan(func(oid OID, data []byte) (bool, error) {
		if oid <= lastOID {
			t.Fatalf("scan out of order: %d after %d", oid, lastOID)
		}
		lastOID = oid
		if !bytes.Equal(data, want[oid]) {
			t.Fatalf("oid %d data mismatch", oid)
		}
		n++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("scanned %d, want %d", n, len(want))
	}
	if c, _ := os.Count(); c != len(want) {
		t.Fatalf("count = %d", c)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db")
	st, err := store.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	os1, err := Open(st, 0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oid, err := os1.Put([]byte("survives"), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	os2, err := Open(st2, 0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os2.Get(oid)
	if err != nil || string(got) != "survives" {
		t.Fatalf("after reopen: %q %v", got, err)
	}
	// OID allocation continues above the persisted objects.
	oid2, err := os2.Put([]byte("new"), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	if oid2 <= oid {
		t.Fatalf("OID %d reused after reopen (had %d)", oid2, oid)
	}
}

// TestQuickModel compares the object store against a map model under a
// random workload including large objects.
func TestQuickModel(t *testing.T) {
	f := func(seed int64) bool {
		st, err := store.Open(filepath.Join(t.TempDir(), "db"), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		os, err := Open(st, 0, 1, Options{Clustering: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[OID][]byte{}
		var oids []OID
		var dead OID // the last deleted OID
		randData := func() []byte {
			var n int
			if rng.Intn(10) == 0 {
				n = 4000 + rng.Intn(9000) // overflow-sized
			} else {
				n = rng.Intn(300)
			}
			d := make([]byte, n)
			rng.Read(d)
			return d
		}
		pick := func() (OID, bool) {
			if len(oids) == 0 {
				return 0, false
			}
			return oids[rng.Intn(len(oids))], true
		}
		for step := 0; step < 200; step++ {
			switch rng.Intn(6) {
			case 0, 1, 2: // put
				var near OID
				if o, ok := pick(); ok && rng.Intn(2) == 0 {
					near = o
				}
				d := randData()
				oid, err := os.Put(d, near)
				if err != nil {
					t.Fatal(err)
				}
				model[oid] = d
				oids = append(oids, oid)
			case 3: // update
				if oid, ok := pick(); ok {
					d := randData()
					if err := os.Update(oid, d); err != nil {
						t.Fatal(err)
					}
					model[oid] = d
				}
			case 4: // delete
				if len(oids) > 0 {
					i := rng.Intn(len(oids))
					oid := oids[i]
					oids = append(oids[:i], oids[i+1:]...)
					if err := os.Delete(oid); err != nil {
						t.Fatal(err)
					}
					delete(model, oid)
					dead = oid
				}
			case 5: // get
				if oid, ok := pick(); ok {
					got, err := os.Get(oid)
					if err != nil || !bytes.Equal(got, model[oid]) {
						t.Errorf("seed %d step %d: get mismatch (%v)", seed, step, err)
						return false
					}
				}
			}
		}
		n := 0
		err = os.Scan(func(oid OID, data []byte) (bool, error) {
			want, ok := model[oid]
			if !ok || !bytes.Equal(data, want) {
				t.Errorf("seed %d: scan found wrong object %d", seed, oid)
				return false, nil
			}
			n++
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(model) {
			return false
		}
		// Every live object in one batch, shuffled, so list order, OID
		// order and page order all disagree.
		rng.Shuffle(len(oids), func(i, j int) { oids[i], oids[j] = oids[j], oids[i] })
		seen := make([]int, len(oids))
		err = os.ViewBatch(oids, func(i int, data []byte) error {
			seen[i]++
			if !bytes.Equal(data, model[oids[i]]) {
				t.Errorf("seed %d: ViewBatch item %d (oid %d) differs from the model", seed, i, oids[i])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("seed %d: ViewBatch visited item %d %d times", seed, i, c)
				return false
			}
		}
		// A deleted OID in the batch fails it at the caller's index.
		if dead != InvalidOID && len(oids) > 0 {
			at := rng.Intn(len(oids))
			withDead := append(append(append([]OID(nil), oids[:at]...), dead), oids[at:]...)
			err := os.ViewBatch(withDead, func(int, []byte) error { return nil })
			var be *BatchError
			if !errors.As(err, &be) || be.Index != at || !errors.Is(err, ErrNotFound) {
				t.Errorf("seed %d: ViewBatch with oid %d deleted at %d: %v", seed, dead, at, err)
				return false
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPageOfDiagnostics(t *testing.T) {
	os, _ := openStore(t, Options{})
	oid, err := os.Put([]byte("x"), InvalidOID)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := os.PageOf(oid)
	if err != nil || pg == page.Invalid {
		t.Fatalf("PageOf = %d %v", pg, err)
	}
}

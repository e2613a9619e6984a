package oodb

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"hypermodel/internal/hyper"
	"hypermodel/internal/objstore"
	"hypermodel/internal/storage/slotted"
)

// scanFixture is a committed level-4 database (781 nodes, four
// ScanTen chunks) and its layout.
func scanFixture(t *testing.T) (*DB, hyper.Layout) {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "db"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	lay, _, err := hyper.Generate(db, hyper.GenConfig{LeafLevel: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if lay.Total() <= 2*scanChunk {
		t.Fatalf("%d nodes do not span three chunks of %d", lay.Total(), scanChunk)
	}
	return db, lay
}

// TestScanTenChunks checks ScanTen across chunk boundaries: every node
// once, in ascending uniqueId order, with the ten its object holds, and
// a visit that returns false ends the scan on that node, on either side
// of a boundary.
func TestScanTenChunks(t *testing.T) {
	db, lay := scanFixture(t)
	total := lay.Total()
	var prev hyper.NodeID
	n := 0
	err := db.ScanTen(1, hyper.NodeID(total), func(id hyper.NodeID, ten int32) bool {
		if id <= prev {
			t.Fatalf("visited %d after %d", id, prev)
		}
		prev = id
		n++
		node, err := db.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if ten != node.Ten {
			t.Fatalf("node %d: ScanTen gave ten %d, Node %d", id, ten, node.Ten)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("visited %d of %d nodes", n, total)
	}
	for _, stopAt := range []int{1, scanChunk - 1, scanChunk, scanChunk + 1, total} {
		n := 0
		err := db.ScanTen(1, hyper.NodeID(total), func(hyper.NodeID, int32) bool {
			n++
			return n < stopAt
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != stopAt {
			t.Fatalf("visit returned false on node %d, scan made %d visits", stopAt, n)
		}
	}
	// A range that starts inside the first chunk's worth of ids.
	n = 0
	err = db.ScanTen(100, 100+scanChunk, func(id hyper.NodeID, _ int32) bool {
		if want := hyper.NodeID(100 + n); id != want {
			t.Fatalf("visited %d, want %d", id, want)
		}
		n++
		return true
	})
	if err != nil || n != scanChunk+1 {
		t.Fatalf("ScanTen(100, %d): %d visits, %v", 100+scanChunk, n, err)
	}
}

// TestScanTenRejectsCorruptRecords damages one object in the middle of
// the second chunk and checks that ScanTen fails with the layer's
// typed error instead of panicking or skipping the node, and that a
// node whose object is gone is hyper.ErrNotFound, on ScanTen and, at
// the caller's index, on the batch reads.
func TestScanTenRejectsCorruptRecords(t *testing.T) {
	victim := hyper.NodeID(scanChunk + scanChunk/2)
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, db *DB)
		want   string
	}{
		{"truncated object", func(t *testing.T, db *DB) {
			if err := db.objs.Update(mustOID(t, db, victim), []byte{1, 0}); err != nil {
				t.Fatal(err)
			}
		}, "oodb: "},
		{"unknown record flag", func(t *testing.T, db *DB) { plantStub(t, db, victim, []byte{7, 1, 2, 3}) }, "objstore: corrupt record"},
		{"object gone", func(t *testing.T, db *DB) {
			if err := db.objs.Delete(mustOID(t, db, victim)); err != nil {
				t.Fatal(err)
			}
		}, "hyper: not found"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, lay := scanFixture(t)
			tc.damage(t, db)
			visits := 0
			err := db.ScanTen(1, hyper.NodeID(lay.Total()), func(hyper.NodeID, int32) bool { visits++; return true })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ScanTen over the damaged object: %v, want %q", err, tc.want)
			}
			if visits >= int(victim) {
				t.Fatalf("ScanTen visited %d nodes, past the damaged node %d", visits, victim)
			}
			if tc.name != "object gone" {
				return
			}
			if !errors.Is(err, hyper.ErrNotFound) {
				t.Fatalf("ScanTen: %v is not hyper.ErrNotFound", err)
			}
			var be *hyper.BatchError
			if errors.As(err, &be) {
				t.Fatalf("ScanTen reports a batch index: %v", err)
			}
			// The batch reads in OID order; the error names the list index.
			ids := []hyper.NodeID{victim + 1, victim + 2, victim, 1}
			const at = 2
			sorted := 0
			for _, id := range ids {
				if mustOID(t, db, id) < mustOID(t, db, victim) {
					sorted++
				}
			}
			if sorted == at {
				t.Fatalf("fixture: the dangling node's OID order equals its list index %d", at)
			}
			_, err = db.NodesBatch(ids)
			if !errors.As(err, &be) || be.Index != at || !errors.Is(err, hyper.ErrNotFound) {
				t.Fatalf("NodesBatch over the dangling node: %v, want *hyper.BatchError at index %d wrapping ErrNotFound", err, at)
			}
		})
	}
}

func mustOID(t *testing.T, db *DB, id hyper.NodeID) objstore.OID {
	t.Helper()
	oid, err := db.oidOf(id)
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

// plantStub overwrites id's record in its slotted page with rec,
// leaving the object table pointing at it.
func plantStub(t *testing.T, db *DB, id hyper.NodeID, rec []byte) {
	t.Helper()
	oid := mustOID(t, db, id)
	body, err := db.objs.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := db.objs.PageOf(oid)
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.st.Get(pg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	sp := slotted.Wrap(h.Page())
	slot := -1
	sp.Slots(func(i int, data []byte) bool {
		if len(data) > 0 && bytes.Equal(data[1:], body) {
			slot = i
			return false
		}
		return true
	})
	if slot < 0 || !sp.Update(slot, rec) {
		t.Fatalf("could not plant %x over node %d's record", rec, id)
	}
	h.MarkDirty()
}

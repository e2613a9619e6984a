package reldb

import (
	"errors"
	"path/filepath"
	"testing"

	"hypermodel/internal/backend/backendtest"
	"hypermodel/internal/hyper"
)

func TestConformance(t *testing.T) {
	var lastPath string
	backendtest.Run(t, backendtest.Config{
		Open: func(t *testing.T) hyper.Backend {
			lastPath = filepath.Join(t.TempDir(), "rel.db")
			db, err := Open(lastPath, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
		Reopen: func(t *testing.T, b hyper.Backend) hyper.Backend {
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			db, err := Open(lastPath, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
	})
}

func TestNoOIDs(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "rel.db"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.OIDOf(1); !errors.Is(err, hyper.ErrNoOIDs) {
		t.Fatalf("OIDOf = %v, want ErrNoOIDs", err)
	}
	if _, err := db.HundredByOID(1); !errors.Is(err, hyper.ErrNoOIDs) {
		t.Fatalf("HundredByOID = %v, want ErrNoOIDs", err)
	}
}

func TestChildOrderSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id hyper.NodeID) {
		if err := db.CreateNode(hyper.Node{ID: id}, 0); err != nil {
			t.Fatal(err)
		}
	}
	mk(1)
	// Insert children in a scrambled ID order; the returned order must
	// be insertion order, not key order.
	order := []hyper.NodeID{5, 2, 9, 3, 7}
	for _, id := range order {
		mk(id)
		if err := db.AddChild(1, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	kids, err := db2.Children(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != len(order) {
		t.Fatalf("children = %v", kids)
	}
	for i := range order {
		if kids[i] != order[i] {
			t.Fatalf("children order = %v, want %v", kids, order)
		}
	}
}

func TestDuplicatePartEdgesPreserved(t *testing.T) {
	// The generator's random M-N picks can select the same part twice;
	// the relational mapping must keep both rows (seq-keyed, not
	// pair-keyed).
	db, err := Open(filepath.Join(t.TempDir(), "rel.db"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, id := range []hyper.NodeID{1, 2} {
		if err := db.CreateNode(hyper.Node{ID: id}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := db.AddPart(1, 2); err != nil {
			t.Fatal(err)
		}
	}
	parts, err := db.Parts(1)
	if err != nil || len(parts) != 3 {
		t.Fatalf("parts = %v (%v), want three rows", parts, err)
	}
	wholes, err := db.PartOf(2)
	if err != nil || len(wholes) != 3 {
		t.Fatalf("partOf = %v (%v), want three rows", wholes, err)
	}
}

// TestPointReadAllocs pins the relational point reads to zero
// allocations on a warm database: the NODE and CHILDINV probes decode
// the row in place under the leaf's pin, and a pin hit allocates
// nothing. A copying B-tree Get or a per-pin handle put back on the
// path fails here.
func TestPointReadAllocs(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "rel.db"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lay, _, err := hyper.Generate(db, hyper.GenConfig{LeafLevel: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	total := hyper.NodeID(lay.Total())
	for _, c := range []struct {
		name string
		read func(id hyper.NodeID) error
	}{
		{"Hundred", func(id hyper.NodeID) error { _, err := db.Hundred(id); return err }},
		{"Node", func(id hyper.NodeID) error { _, err := db.Node(id); return err }},
		{"Parent", func(id hyper.NodeID) error { _, _, err := db.Parent(id); return err }},
	} {
		// AllocsPerRun's warm-up pass makes every page resident.
		got := testing.AllocsPerRun(4, func() {
			for id := hyper.NodeID(1); id <= total; id++ {
				if err := c.read(id); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got != 0 {
			t.Errorf("%s: %.2f allocations per pass over %d nodes, want 0", c.name, got, total)
		}
	}
}

package oodb

import (
	"path/filepath"
	"testing"

	"hypermodel/internal/hyper"
)

// TestActivationAllocs puts a ceiling on what one object activation
// allocates on a warm level-3 database. The read accessors decode in
// place under the page pin, and a page pin hit allocates nothing, so
// what is left is the result slice. The batch forms walk the object
// table once in OID order and pin each data page once. The ceilings sit
// just above the measured values (0.01, 0.21, 1.01, 0.24 and 0.045 per
// node; the one FormNode spills and is assembled from its chain).
// While every page Get allocated its handle the same calls cost 4.05,
// 4.25, 5.05, 1.60 and 0.38; before in-place activation 10, 10, 11,
// 10.8 and 10.5, and before the sorted table walk NodesBatch and
// ScanTen cost 3.52 and 4.08. So a reintroduced per-pin allocation,
// record copy, eager decode or per-object table descent fails here.
func TestActivationAllocs(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "db"), DefaultOptions())
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
	total := lay.Total()
	batch := make([]hyper.NodeID, 25)
	first, _ := lay.LevelIDs(lay.LeafLevel - 1)
	for i := range batch {
		batch[i] = first + hyper.NodeID(i)
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	each := func(call func(id hyper.NodeID) error) func() {
		return func() {
			for id := hyper.NodeID(1); id <= hyper.NodeID(total); id++ {
				check(call(id))
			}
		}
	}
	for _, c := range []struct {
		name    string
		nodes   int // objects activated by one pass
		ceiling float64
		pass    func()
	}{
		{"Hundred", total, 0.1, each(func(id hyper.NodeID) error { _, err := db.Hundred(id); return err })},
		{"Children", total, 0.3, each(func(id hyper.NodeID) error { _, err := db.Children(id); return err })},
		{"RefsTo", total, 1.1, each(func(id hyper.NodeID) error { _, err := db.RefsTo(id); return err })},
		{"NodesBatch", len(batch), 0.3, func() { _, err := db.NodesBatch(batch); check(err) }},
		{"ScanTen", total, 0.1, func() {
			check(db.ScanTen(1, hyper.NodeID(total), func(hyper.NodeID, int32) bool { return true }))
		}},
	} {
		// AllocsPerRun's warm-up call makes the pages resident and fills
		// the OID cache; it averages whole passes, so divide by nodes.
		got := testing.AllocsPerRun(4, c.pass) / float64(c.nodes)
		if got > c.ceiling {
			t.Errorf("%s: %.2f allocations per node, ceiling %.2f", c.name, got, c.ceiling)
		}
	}
}

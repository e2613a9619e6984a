package oodb

import (
	"math/rand"
	"path/filepath"
	"testing"

	"hypermodel/internal/backend/backendtest"
	"hypermodel/internal/hyper"
	"hypermodel/internal/storage/store"
)

func TestConformance(t *testing.T) {
	var lastPath string
	backendtest.Run(t, backendtest.Config{
		Open: func(t *testing.T) hyper.Backend {
			lastPath = filepath.Join(t.TempDir(), "oodb.db")
			db, err := Open(lastPath, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
		Reopen: func(t *testing.T, b hyper.Backend) hyper.Backend {
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			db, err := Open(lastPath, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
	})
}

func TestConformanceUnclustered(t *testing.T) {
	backendtest.Run(t, backendtest.Config{
		Open: func(t *testing.T) hyper.Backend {
			db, err := Open(filepath.Join(t.TempDir(), "oodb.db"), Options{Clustering: false})
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
	})
}

// TestClusteringLocality checks the E11 premise: with DFS creation and
// the near-hint, the nodes of a 1-N subtree occupy far fewer distinct
// pages than without clustering.
func TestClusteringLocality(t *testing.T) {
	distinctPages := func(clustered bool, order hyper.Order) int {
		path := filepath.Join(t.TempDir(), "db")
		db, err := Open(path, Options{Clustering: clustered, Scatter: !clustered})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		lay, _, err := hyper.Generate(db, hyper.GenConfig{LeafLevel: 4, Seed: 5, Order: order})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		start := lay.RandomClosureStart(rng)
		nodes, err := hyper.Closure1N(db, start)
		if err != nil {
			t.Fatal(err)
		}
		pages := map[uint64]bool{}
		for _, id := range nodes {
			oid, err := db.oidOf(id)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := db.objs.PageOf(oid)
			if err != nil {
				t.Fatal(err)
			}
			pages[uint64(pg)] = true
		}
		return len(pages)
	}
	clustered := distinctPages(true, hyper.OrderDFS)
	scattered := distinctPages(false, hyper.OrderBFS)
	if clustered >= scattered {
		t.Fatalf("clustered closure touches %d pages, unclustered %d — clustering has no effect", clustered, scattered)
	}
	// A level-3 closure is 6 nodes; clustered they should sit on very
	// few pages (fill-factor slack spreads them slightly).
	if clustered > 3 {
		t.Fatalf("clustered 6-node closure touches %d pages", clustered)
	}
}

// TestColdRunHitsDisk checks the cold/warm mechanism end to end: after
// DropCaches the same closure issues disk reads; repeated warm it does
// not.
func TestColdRunHitsDisk(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "db"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lay, _, err := hyper.Generate(db, hyper.GenConfig{LeafLevel: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	start := lay.RandomClosureStart(rng)

	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	_, _, r0 := db.CacheStats()
	if _, err := hyper.Closure1N(db, start); err != nil {
		t.Fatal(err)
	}
	_, _, r1 := db.CacheStats()
	if r1 == r0 {
		t.Fatal("cold closure issued no disk reads")
	}
	if _, err := hyper.Closure1N(db, start); err != nil {
		t.Fatal(err)
	}
	_, _, r2 := db.CacheStats()
	if r2 != r1 {
		t.Fatalf("warm closure issued %d disk reads", r2-r1)
	}
}

func TestObjectCodecRoundTrip(t *testing.T) {
	o := &object{
		node:      hyper.Node{ID: 42, Kind: hyper.KindText, Ten: 3, Hundred: 77, Thousand: 500, Million: 123456},
		parentOID: 9,
		parentID:  8,
		children:  []ref{{1, 10}, {2, 11}},
		parts:     []ref{{3, 12}},
		partOf:    []ref{{4, 13}, {5, 14}, {6, 15}},
		refsTo:    []edgeRef{{7, 16, 1, 2}},
		refsFrom:  []edgeRef{{8, 17, 3, 4}, {9, 18, 5, 6}},
		text:      []byte("hello version1 world"),
	}
	v, err := parseObject(encodeObject(o))
	if err != nil {
		t.Fatal(err)
	}
	got := v.object()
	if got.node != o.node || got.parentOID != o.parentOID || got.parentID != o.parentID {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.children) != 2 || got.children[1] != o.children[1] {
		t.Fatalf("children mismatch: %+v", got.children)
	}
	if len(got.refsFrom) != 2 || got.refsFrom[0] != o.refsFrom[0] {
		t.Fatalf("refsFrom mismatch: %+v", got.refsFrom)
	}
	if string(got.text) != string(o.text) || got.form != nil {
		t.Fatal("content mismatch")
	}
}

func TestObjectCodecRejectsCorrupt(t *testing.T) {
	o := &object{node: hyper.Node{ID: 1}}
	enc := encodeObject(o)
	if _, err := parseObject(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated object accepted")
	}
	if _, err := parseObject(append(enc, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := parseObject(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	// Counts and lengths that overrun the record: an empty object's five
	// section counts sit at headerSize, +2, … and its two content lengths
	// after them.
	for _, off := range []int{headerSize, headerSize + 6, headerSize + 8} {
		bad := append([]byte(nil), enc...)
		bad[off], bad[off+1] = 0xff, 0xff
		if _, err := parseObject(bad); err == nil {
			t.Fatalf("section count at %d overrunning the record accepted", off)
		}
	}
	for _, off := range []int{headerSize + 10, headerSize + 14} {
		bad := append([]byte(nil), enc...)
		copy(bad[off:], []byte{0xff, 0xff, 0xff, 0xff})
		if _, err := parseObject(bad); err == nil {
			t.Fatalf("content length at %d overrunning the record accepted", off)
		}
	}
}

// TestCrashRecovery commits work, crashes the store, and verifies the
// database recovers to the committed state.
func TestCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lay, _, err := hyper.Generate(db, hyper.GenConfig{LeafLevel: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	// Committed update, then an uncommitted one, then crash.
	if err := db.SetHundred(5, 42); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.SetHundred(5, 77); err != nil {
		t.Fatal(err)
	}
	db.Store().(*store.Store).CrashForTesting()

	db2, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	defer db2.Close()
	h, err := db2.Hundred(5)
	if err != nil {
		t.Fatal(err)
	}
	if h != 42 {
		t.Fatalf("after crash recovery hundred = %d, want committed 42", h)
	}
	// Structure intact.
	nodes, err := hyper.Closure1N(db2, 1)
	if err != nil || len(nodes) != lay.Total() {
		t.Fatalf("closure after recovery: %d nodes (%v), want %d", len(nodes), err, lay.Total())
	}
}

// Package backendtest is a conformance suite run against every
// hyper.Backend implementation (memdb, oodb, reldb, remote). It checks
// the §5.2 generator invariants — the structural content of the
// paper's Figures 2, 3 and 4 — and the semantics of all twenty
// operations, so that the benchmark compares identical logical work
// across backends.
package backendtest

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hypermodel/internal/hyper"
)

// Config describes how to construct the backend under test.
type Config struct {
	// Open returns a fresh, empty backend.
	Open func(t *testing.T) hyper.Backend
	// Reopen closes the given backend and reopens the same database,
	// or returns nil if the backend has no persistence to test.
	Reopen func(t *testing.T, b hyper.Backend) hyper.Backend
	// LeafLevel for the generated test database; 3 (156 nodes, one
	// FormNode) if zero.
	LeafLevel int
}

const seed = 42

func (c Config) leafLevel() int {
	if c.LeafLevel == 0 {
		return 3
	}
	return c.LeafLevel
}

func (c Config) generate(t *testing.T) (hyper.Backend, hyper.Layout) {
	t.Helper()
	b := c.Open(t)
	lay, _, err := hyper.Generate(b, hyper.GenConfig{LeafLevel: c.leafLevel(), Seed: seed})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return b, lay
}

// Run executes the full conformance suite.
func Run(t *testing.T, cfg Config) {
	t.Run("GeneratorInvariants", func(t *testing.T) { testGeneratorInvariants(t, cfg) })
	t.Run("NameLookup", func(t *testing.T) { testNameLookup(t, cfg) })
	t.Run("RangeLookup", func(t *testing.T) { testRangeLookup(t, cfg) })
	t.Run("GroupAndRefLookup", func(t *testing.T) { testGroupRef(t, cfg) })
	t.Run("BatchReads", func(t *testing.T) { testBatchReads(t, cfg) })
	t.Run("SeqScan", func(t *testing.T) { testSeqScan(t, cfg) })
	t.Run("Closure1N", func(t *testing.T) { testClosure1N(t, cfg) })
	t.Run("ClosureAttOps", func(t *testing.T) { testClosureAttOps(t, cfg) })
	t.Run("ClosureMN", func(t *testing.T) { testClosureMN(t, cfg) })
	t.Run("ClosureMNAtt", func(t *testing.T) { testClosureMNAtt(t, cfg) })
	t.Run("Editing", func(t *testing.T) { testEditing(t, cfg) })
	t.Run("Blobs", func(t *testing.T) { testBlobs(t, cfg) })
	t.Run("ColdCorrectness", func(t *testing.T) { testColdCorrectness(t, cfg) })
	t.Run("Persistence", func(t *testing.T) { testPersistence(t, cfg) })
	t.Run("Errors", func(t *testing.T) { testErrors(t, cfg) })
	t.Run("SchemaModification", func(t *testing.T) { testSchemaModification(t, cfg) })
	t.Run("TwoStructures", func(t *testing.T) { testTwoStructures(t, cfg) })
	t.Run("ConcurrentReads", func(t *testing.T) { testConcurrentReads(t, cfg) })
}

// testTwoStructures exercises §6.4.1's requirement: the database may
// hold a second copy of the test structure, and operations on one must
// not touch or report nodes of the other.
func testTwoStructures(t *testing.T, cfg Config) {
	b := cfg.Open(t)
	defer b.Close()
	layA, _, err := hyper.Generate(b, hyper.GenConfig{LeafLevel: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	layB, _, err := hyper.Generate(b, hyper.GenConfig{
		LeafLevel: 2, Seed: 2, BaseID: layA.LastID() + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if layB.FirstID() != layA.LastID()+1 {
		t.Fatalf("structure B starts at %d", layB.FirstID())
	}

	// Both structures are complete and independent.
	for _, lay := range []hyper.Layout{layA, layB} {
		nodes, err := hyper.Closure1N(b, lay.FirstID())
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != lay.Total() {
			t.Fatalf("closure from %d found %d nodes, want %d", lay.FirstID(), len(nodes), lay.Total())
		}
		for _, id := range nodes {
			if id < lay.FirstID() || id > lay.LastID() {
				t.Fatalf("closure of one structure reached foreign node %d", id)
			}
		}
	}
	// The bounded sequential scan (O9) honours structure boundaries —
	// the reason the paper forbids using the class extension.
	count, err := hyper.SeqScan(b, layA.FirstID(), layA.LastID())
	if err != nil {
		t.Fatal(err)
	}
	if count != layA.Total() {
		t.Fatalf("bounded scan visited %d nodes, want %d", count, layA.Total())
	}
	// Edges stay inside their structure.
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		id := layB.RandomNode(rng)
		refs, err := b.RefsTo(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range refs {
			if e.To < layB.FirstID() || e.To > layB.LastID() {
				t.Fatalf("structure B edge points into structure A: %+v", e)
			}
		}
	}
}

func testGeneratorInvariants(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	total := lay.Total()

	// Figure 2 — the 1-N tree: every internal node has exactly five
	// ordered children whose parent pointers return to it.
	childEdges := 0
	for lvl := 0; lvl < lay.LeafLevel; lvl++ {
		first, last := hyper.LevelIDs(lvl)
		for id := first; id <= last; id++ {
			kids, err := b.Children(id)
			if err != nil {
				t.Fatalf("children(%d): %v", id, err)
			}
			if len(kids) != hyper.FanOut {
				t.Fatalf("node %d has %d children", id, len(kids))
			}
			childEdges += len(kids)
			for _, k := range kids {
				if lay.LevelOf(k) != lvl+1 {
					t.Fatalf("child %d of %d is on level %d, want %d", k, id, lay.LevelOf(k), lvl+1)
				}
				p, ok, err := b.Parent(k)
				if err != nil || !ok || p != id {
					t.Fatalf("parent(%d) = %d %v %v, want %d", k, p, ok, err, id)
				}
			}
		}
	}
	if childEdges != total-1 {
		t.Fatalf("1-N relationships = %d, want %d (one less than the nodes)", childEdges, total-1)
	}
	if _, ok, err := b.Parent(1); err != nil || ok {
		t.Fatalf("root has a parent (%v)", err)
	}

	// Figure 3 — the M-N aggregation: five parts per non-leaf node,
	// all from the next level, with consistent inverses.
	partEdges := 0
	for lvl := 0; lvl < lay.LeafLevel; lvl++ {
		first, last := hyper.LevelIDs(lvl)
		for id := first; id <= last; id++ {
			parts, err := b.Parts(id)
			if err != nil {
				t.Fatalf("parts(%d): %v", id, err)
			}
			if len(parts) != hyper.FanOut {
				t.Fatalf("node %d has %d parts", id, len(parts))
			}
			partEdges += len(parts)
			for _, p := range parts {
				if lay.LevelOf(p) != lvl+1 {
					t.Fatalf("part %d of %d on level %d, want %d", p, id, lay.LevelOf(p), lvl+1)
				}
				wholes, err := b.PartOf(p)
				if err != nil {
					t.Fatalf("partOf(%d): %v", p, err)
				}
				found := 0
				for _, w := range wholes {
					if w == id {
						found++
					}
				}
				if found == 0 {
					t.Fatalf("partOf(%d) misses whole %d", p, id)
				}
			}
		}
	}
	if partEdges != total-1 {
		t.Fatalf("M-N relationships = %d, want %d", partEdges, total-1)
	}
	// Leaves have no parts or children.
	leafFirst, _ := hyper.LevelIDs(lay.LeafLevel)
	if kids, err := b.Children(leafFirst); err != nil || len(kids) != 0 {
		t.Fatalf("leaf has children: %v %v", kids, err)
	}
	if parts, err := b.Parts(leafFirst); err != nil || len(parts) != 0 {
		t.Fatalf("leaf has parts: %v %v", parts, err)
	}

	// Figure 4 — the M-N association with attributes: exactly one
	// outgoing edge per node, offsets in [0,10), inverses consistent,
	// total edges = total nodes.
	refEdges := 0
	for id := hyper.NodeID(1); id <= hyper.NodeID(total); id++ {
		edges, err := b.RefsTo(id)
		if err != nil {
			t.Fatalf("refsTo(%d): %v", id, err)
		}
		if len(edges) != 1 {
			t.Fatalf("node %d has %d outgoing refs", id, len(edges))
		}
		refEdges += len(edges)
		e := edges[0]
		if e.From != id || e.To < 1 || e.To > hyper.NodeID(total) {
			t.Fatalf("bad edge %+v", e)
		}
		if e.OffsetFrom < 0 || e.OffsetFrom > 9 || e.OffsetTo < 0 || e.OffsetTo > 9 {
			t.Fatalf("edge offsets out of range: %+v", e)
		}
		back, err := b.RefsFrom(e.To)
		if err != nil {
			t.Fatalf("refsFrom(%d): %v", e.To, err)
		}
		found := false
		for _, be := range back {
			if be.From == id && be.OffsetFrom == e.OffsetFrom && be.OffsetTo == e.OffsetTo {
				found = true
			}
		}
		if !found {
			t.Fatalf("refsFrom(%d) misses edge from %d", e.To, id)
		}
	}
	if refEdges != total {
		t.Fatalf("M-N attribute relationships = %d, want %d (equal to the nodes)", refEdges, total)
	}

	// Attribute intervals and node kinds.
	forms, texts := 0, 0
	for id := hyper.NodeID(1); id <= hyper.NodeID(total); id++ {
		n, err := b.Node(id)
		if err != nil {
			t.Fatalf("node(%d): %v", id, err)
		}
		if n.ID != id {
			t.Fatalf("node %d reports ID %d", id, n.ID)
		}
		if n.Ten < 0 || n.Ten >= 10 || n.Hundred < 0 || n.Hundred >= 100 ||
			n.Thousand < 0 || n.Thousand >= 1000 || n.Million < 0 || n.Million >= 1000000 {
			t.Fatalf("node %d attributes out of range: %+v", id, n)
		}
		isLeaf := lay.LevelOf(id) == lay.LeafLevel
		switch n.Kind {
		case hyper.KindInternal:
			if isLeaf {
				t.Fatalf("leaf %d is KindInternal", id)
			}
		case hyper.KindText:
			texts++
			if !isLeaf {
				t.Fatalf("internal %d is KindText", id)
			}
		case hyper.KindForm:
			forms++
			if !isLeaf {
				t.Fatalf("internal %d is KindForm", id)
			}
		}
	}
	leaves := hyper.NodesAtLevel(lay.LeafLevel)
	wantForms := leaves / hyper.TextPerForm
	if forms != wantForms || texts != leaves-wantForms {
		t.Fatalf("forms=%d texts=%d, want %d and %d", forms, texts, wantForms, leaves-wantForms)
	}

	// Text content: version1 first, middle, last; word shape.
	rng := rand.New(rand.NewSource(7))
	id := lay.RandomTextNode(rng)
	text, err := b.Text(id)
	if err != nil {
		t.Fatalf("text(%d): %v", id, err)
	}
	words := strings.Split(text, " ")
	if len(words) < hyper.TextMinWords || len(words) > hyper.TextMaxWords {
		t.Fatalf("text node has %d words", len(words))
	}
	if words[0] != hyper.VersionWord || words[len(words)/2] != hyper.VersionWord || words[len(words)-1] != hyper.VersionWord {
		t.Fatalf("version1 markers missing: %q ... %q", words[0], words[len(words)-1])
	}

	// Form content: all white, side lengths in range.
	fid, ok := lay.RandomFormNode(rng)
	if !ok {
		t.Fatal("no form node in a level-3 database")
	}
	bm, err := b.Form(fid)
	if err != nil {
		t.Fatalf("form(%d): %v", fid, err)
	}
	if bm.W < hyper.BitmapMinSide || bm.W > hyper.BitmapMaxSide || bm.H < hyper.BitmapMinSide || bm.H > hyper.BitmapMaxSide {
		t.Fatalf("bitmap %d×%d out of range", bm.W, bm.H)
	}
	if black := bm.CountBlack(); black != 0 {
		t.Fatalf("fresh bitmap has %d black pixels", black)
	}
}

func testNameLookup(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 25; i++ {
		id := lay.RandomNode(rng)
		n, err := b.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		h, err := hyper.NameLookup(b, id)
		if err != nil || h != n.Hundred {
			t.Fatalf("O1 nameLookup(%d) = %d %v, want %d", id, h, err, n.Hundred)
		}
		oid, err := b.OIDOf(id)
		if errors.Is(err, hyper.ErrNoOIDs) {
			continue // O2 not applicable for this backend
		}
		if err != nil {
			t.Fatal(err)
		}
		h2, err := hyper.NameOIDLookup(b, oid)
		if err != nil || h2 != n.Hundred {
			t.Fatalf("O2 nameOIDLookup(%d) = %d %v, want %d", oid, h2, err, n.Hundred)
		}
	}
}

func testRangeLookup(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	total := hyper.NodeID(lay.Total())

	brute := func(attr func(hyper.Node) int32, lo, hi int32) map[hyper.NodeID]bool {
		out := map[hyper.NodeID]bool{}
		for id := hyper.NodeID(1); id <= total; id++ {
			n, err := b.Node(id)
			if err != nil {
				t.Fatal(err)
			}
			if v := attr(n); v >= lo && v <= hi {
				out[id] = true
			}
		}
		return out
	}
	check := func(name string, got []hyper.NodeID, want map[hyper.NodeID]bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s returned %d nodes, want %d", name, len(got), len(want))
		}
		seen := map[hyper.NodeID]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("%s returned duplicate %d", name, id)
			}
			seen[id] = true
			if !want[id] {
				t.Fatalf("%s returned wrong node %d", name, id)
			}
		}
	}

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5; i++ {
		x := int32(rng.Intn(hyper.HundredRange - hyper.HundredWindow + 1))
		got, err := hyper.RangeLookupHundred(b, x)
		if err != nil {
			t.Fatal(err)
		}
		check("O3 rangeLookupHundred", got, brute(func(n hyper.Node) int32 { return n.Hundred }, x, x+9))

		y := int32(rng.Intn(hyper.MillionRange - hyper.MillionWindow + 1))
		gotM, err := hyper.RangeLookupMillion(b, y)
		if err != nil {
			t.Fatal(err)
		}
		check("O4 rangeLookupMillion", gotM, brute(func(n hyper.Node) int32 { return n.Million }, y, y+9999))
	}
}

func testGroupRef(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		id := lay.RandomInternal(rng)
		kids, err := hyper.GroupLookup1N(b, id)
		if err != nil || len(kids) != hyper.FanOut {
			t.Fatalf("O5A groupLookup1N(%d) = %v %v", id, kids, err)
		}
		// Order: the generator appends children left to right, so the
		// IDs must be consecutive ascending (level-major numbering).
		for j := 1; j < len(kids); j++ {
			if kids[j] != kids[j-1]+1 {
				t.Fatalf("children of %d not in insertion order: %v", id, kids)
			}
		}
		parts, err := hyper.GroupLookupMN(b, id)
		if err != nil || len(parts) != hyper.FanOut {
			t.Fatalf("O5B groupLookupMN(%d) = %v %v", id, parts, err)
		}
		refs, err := hyper.GroupLookupMNAtt(b, id)
		if err != nil || len(refs) != 1 {
			t.Fatalf("O6 groupLookupMNAtt(%d) = %v %v", id, refs, err)
		}

		nr := lay.RandomNonRoot(rng)
		parent, err := hyper.RefLookup1N(b, nr)
		if err != nil || len(parent) != 1 {
			t.Fatalf("O7A refLookup1N(%d) = %v %v", nr, parent, err)
		}
		back, err := b.Children(parent[0])
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, c := range back {
			if c == nr {
				found = true
			}
		}
		if !found {
			t.Fatalf("parent %d does not list %d as child", parent[0], nr)
		}
		wholes, err := hyper.RefLookupMN(b, nr)
		if err != nil {
			t.Fatalf("O7B refLookupMN(%d): %v", nr, err)
		}
		for _, w := range wholes {
			ps, err := b.Parts(w)
			if err != nil {
				t.Fatal(err)
			}
			ok := false
			for _, p := range ps {
				if p == nr {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("whole %d does not list part %d", w, nr)
			}
		}
		if _, err := hyper.RefLookupMNAtt(b, lay.RandomNode(rng)); err != nil {
			t.Fatalf("O8 refLookupMNAtt: %v", err)
		}
	}
}

func testSeqScan(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	count, err := hyper.SeqScan(b, 1, hyper.NodeID(lay.Total()))
	if err != nil {
		t.Fatal(err)
	}
	if count != lay.Total() {
		t.Fatalf("O9 seqScan visited %d nodes, want %d", count, lay.Total())
	}
	// The scan must honour the range bounds — the paper requires not
	// touching node objects outside the test structure.
	count, err = hyper.SeqScan(b, 2, 31)
	if err != nil || count != 30 {
		t.Fatalf("bounded scan visited %d (%v), want 30", count, err)
	}
	// ScanTen itself: ascending uniqueIds, both bounds inclusive, each
	// node's own ten attribute, and not one visit after visit says stop.
	const lo, hi, stopAt = hyper.NodeID(5), hyper.NodeID(40), hyper.NodeID(17)
	var visited []hyper.NodeID
	var tens []int32
	err = b.ScanTen(lo, hi, func(id hyper.NodeID, ten int32) bool {
		visited, tens = append(visited, id), append(tens, ten)
		return true
	})
	if err != nil || len(visited) != int(hi-lo)+1 {
		t.Fatalf("ScanTen(%d, %d) visited %d nodes (%v)", lo, hi, len(visited), err)
	}
	for i, id := range visited {
		if id != lo+hyper.NodeID(i) {
			t.Fatalf("ScanTen(%d, %d) visit %d is node %d", lo, hi, i, id)
		}
		if n, err := b.Node(id); err != nil || n.Ten != tens[i] {
			t.Fatalf("scan reported ten %d for node %d, Node says %d (%v)", tens[i], id, n.Ten, err)
		}
	}
	visited = visited[:0]
	err = b.ScanTen(lo, hi, func(id hyper.NodeID, _ int32) bool {
		visited = append(visited, id)
		return id != stopAt
	})
	if err != nil || len(visited) != int(stopAt-lo)+1 || visited[len(visited)-1] != stopAt {
		t.Fatalf("ScanTen told to stop at %d visited %v (%v)", stopAt, visited, err)
	}
}

func testClosure1N(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	rng := rand.New(rand.NewSource(4))
	start := lay.RandomClosureStart(rng)
	got, err := hyper.Closure1N(b, start)
	if err != nil {
		t.Fatal(err)
	}
	want := hyper.ClosureSize(lay.ClosureStartLevel(), lay.LeafLevel)
	if len(got) != want {
		t.Fatalf("O10 closure1N returned %d nodes, want %d", len(got), want)
	}
	if got[0] != start {
		t.Fatalf("pre-order list does not start with the start node")
	}
	// Pre-order: each node appears after its parent; verify by
	// reconstructing positions.
	pos := map[hyper.NodeID]int{}
	for i, id := range got {
		pos[id] = i
	}
	for _, id := range got[1:] {
		p, ok, err := b.Parent(id)
		if err != nil || !ok {
			t.Fatal(err)
		}
		pp, exists := pos[p]
		if !exists || pp >= pos[id] {
			t.Fatalf("node %d appears before its parent %d", id, p)
		}
	}
	// The result list is storable in the database (§6.5).
	if err := hyper.SaveNodeList(b, "toc", got); err != nil {
		t.Fatal(err)
	}
	back, err := hyper.LoadNodeList(b, "toc")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(got) {
		t.Fatalf("stored list round-trip lost nodes: %d != %d", len(back), len(got))
	}
	for i := range got {
		if back[i] != got[i] {
			t.Fatalf("stored list differs at %d", i)
		}
	}
}

func testClosureAttOps(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	rng := rand.New(rand.NewSource(5))
	start := lay.RandomClosureStart(rng)

	nodes, err := hyper.Closure1N(b, start)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, id := range nodes {
		h, err := b.Hundred(id)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(h)
	}
	sum, visited, err := hyper.Closure1NAttSum(b, start)
	if err != nil || visited != len(nodes) || sum != want {
		t.Fatalf("O11 closure1NAttSum = %d over %d nodes (%v), want %d over %d", sum, visited, err, want, len(nodes))
	}

	// O12 twice restores the attribute (paper's own check).
	updated, err := hyper.Closure1NAttSet(b, start)
	if err != nil || updated != len(nodes) {
		t.Fatalf("O12 first run updated %d (%v)", updated, err)
	}
	sumAfter, _, err := hyper.Closure1NAttSum(b, start)
	if err != nil {
		t.Fatal(err)
	}
	if wantAfter := int64(99*len(nodes)) - want; sumAfter != wantAfter {
		t.Fatalf("after O12, sum = %d, want %d", sumAfter, wantAfter)
	}
	if _, err := hyper.Closure1NAttSet(b, start); err != nil {
		t.Fatal(err)
	}
	sumRestored, _, err := hyper.Closure1NAttSum(b, start)
	if err != nil || sumRestored != want {
		t.Fatalf("O12 twice did not restore: %d != %d (%v)", sumRestored, want, err)
	}
	// Index consistency after the updates: a range lookup must agree
	// with brute force again.
	got, err := hyper.RangeLookupHundred(b, 20)
	if err != nil {
		t.Fatal(err)
	}
	wantSet := map[hyper.NodeID]bool{}
	for id := hyper.NodeID(1); id <= hyper.NodeID(lay.Total()); id++ {
		n, err := b.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Hundred >= 20 && n.Hundred <= 29 {
			wantSet[id] = true
		}
	}
	if len(got) != len(wantSet) {
		t.Fatalf("range lookup after O12: %d nodes, want %d (index out of sync)", len(got), len(wantSet))
	}

	// O13: prune at million ∈ [x, x+9999].
	x := int32(rng.Intn(hyper.MillionRange - hyper.MillionWindow + 1))
	got13, err := hyper.Closure1NPred(b, start, x)
	if err != nil {
		t.Fatal(err)
	}
	want13 := map[hyper.NodeID]bool{}
	var walk func(id hyper.NodeID)
	walk = func(id hyper.NodeID) {
		n, err := b.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Million >= x && n.Million <= x+9999 {
			return
		}
		want13[id] = true
		kids, err := b.Children(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kids {
			walk(k)
		}
	}
	walk(start)
	if len(got13) != len(want13) {
		t.Fatalf("O13 returned %d nodes, want %d", len(got13), len(want13))
	}
	for _, id := range got13 {
		if !want13[id] {
			t.Fatalf("O13 returned pruned node %d", id)
		}
	}
}

func testClosureMN(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	rng := rand.New(rand.NewSource(6))
	start := lay.RandomClosureStart(rng)
	got, err := hyper.ClosureMN(b, start)
	if err != nil {
		t.Fatal(err)
	}
	// Model: BFS over Parts with dedup.
	want := map[hyper.NodeID]bool{start: true}
	queue := []hyper.NodeID{start}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		parts, err := b.Parts(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			if !want[p] {
				want[p] = true
				queue = append(queue, p)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("O14 closureMN returned %d nodes, want %d", len(got), len(want))
	}
	seen := map[hyper.NodeID]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("O14 duplicated node %d", id)
		}
		seen[id] = true
		if !want[id] {
			t.Fatalf("O14 returned unreachable node %d", id)
		}
	}
}

func testClosureMNAtt(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	rng := rand.New(rand.NewSource(7))
	start := lay.RandomClosureStart(rng)
	const depth = 25

	got, err := hyper.ClosureMNAtt(b, start, depth)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > depth {
		t.Fatalf("O15 returned %d nodes, depth bound is %d", len(got), depth)
	}
	// Model: follow the single outgoing edge as a chain until depth or
	// a repeat (the test database has out-degree exactly one).
	var wantChain []hyper.NodeID
	seen := map[hyper.NodeID]bool{start: true}
	cur := start
	var wantDist []int64
	dist := int64(0)
	for i := 0; i < depth; i++ {
		edges, err := b.RefsTo(cur)
		if err != nil {
			t.Fatal(err)
		}
		next := edges[0].To
		if seen[next] {
			break
		}
		seen[next] = true
		dist += int64(edges[0].OffsetTo)
		wantChain = append(wantChain, next)
		wantDist = append(wantDist, dist)
		cur = next
	}
	if len(got) != len(wantChain) {
		t.Fatalf("O15 returned %d nodes, want chain of %d", len(got), len(wantChain))
	}
	for i := range got {
		if got[i] != wantChain[i] {
			t.Fatalf("O15 chain diverges at %d: %d != %d", i, got[i], wantChain[i])
		}
	}

	// O18: same chain with accumulated offsetTo distances.
	pairs, err := hyper.ClosureMNAttLinkSum(b, start, depth)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(wantChain) {
		t.Fatalf("O18 returned %d pairs, want %d", len(pairs), len(wantChain))
	}
	for i, p := range pairs {
		if p.ID != wantChain[i] || p.Dist != wantDist[i] {
			t.Fatalf("O18 pair %d = {%d %d}, want {%d %d}", i, p.ID, p.Dist, wantChain[i], wantDist[i])
		}
	}
}

func testEditing(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	rng := rand.New(rand.NewSource(8))

	// O16: forward then backward restores the text.
	id := lay.RandomTextNode(rng)
	before, err := b.Text(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := hyper.TextNodeEdit(b, id, true); err != nil {
		t.Fatal(err)
	}
	mid, err := b.Text(id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mid, hyper.VersionWordEdit) || strings.Contains(mid, hyper.VersionWord+" ") && len(mid) == len(before) {
		t.Fatalf("O16 forward produced %q", mid[:40])
	}
	if len(mid) != len(before)+3 { // three markers, one char longer each
		t.Fatalf("O16 length %d -> %d, want +3", len(before), len(mid))
	}
	if err := hyper.TextNodeEdit(b, id, false); err != nil {
		t.Fatal(err)
	}
	after, err := b.Text(id)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("O16 twice did not restore the text")
	}

	// O17: inverting the same rectangle twice restores the bitmap.
	fid, ok := lay.RandomFormNode(rng)
	if !ok {
		t.Skip("database too small for form nodes")
	}
	r := hyper.Rect{X: 10, Y: 12, W: 30, H: 40}
	if err := hyper.FormNodeEdit(b, fid, r); err != nil {
		t.Fatal(err)
	}
	bm, err := b.Form(fid)
	if err != nil {
		t.Fatal(err)
	}
	if black := bm.CountBlack(); black != 30*40 {
		t.Fatalf("O17 inverted %d pixels, want %d", black, 30*40)
	}
	if err := hyper.FormNodeEdit(b, fid, r); err != nil {
		t.Fatal(err)
	}
	bm, err = b.Form(fid)
	if err != nil {
		t.Fatal(err)
	}
	if black := bm.CountBlack(); black != 0 {
		t.Fatalf("O17 twice left %d black pixels", black)
	}
}

func testBlobs(t *testing.T, cfg Config) {
	b := cfg.Open(t)
	defer b.Close()
	if _, err := b.GetBlob("absent"); err == nil {
		t.Fatal("GetBlob of missing key succeeded")
	}
	if err := b.PutBlob("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := b.PutBlob("k", []byte("v2 longer")); err != nil {
		t.Fatal(err)
	}
	got, err := b.GetBlob("k")
	if err != nil || string(got) != "v2 longer" {
		t.Fatalf("GetBlob = %q %v", got, err)
	}
	if err := b.DeleteBlob("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.GetBlob("k"); err == nil {
		t.Fatal("deleted blob still readable")
	}
	if err := b.DeleteBlob("k"); err != nil {
		t.Fatalf("DeleteBlob not idempotent: %v", err)
	}
}

func testColdCorrectness(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	rng := rand.New(rand.NewSource(9))
	id := lay.RandomNode(rng)
	warm, err := b.Hundred(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.DropCaches(); err != nil {
		t.Fatalf("DropCaches: %v", err)
	}
	cold, err := b.Hundred(id)
	if err != nil || cold != warm {
		t.Fatalf("cold read = %d %v, want %d", cold, err, warm)
	}
	// A full closure works cold too.
	start := lay.RandomClosureStart(rng)
	nodes, err := hyper.Closure1N(b, start)
	if err != nil || len(nodes) != hyper.ClosureSize(lay.ClosureStartLevel(), lay.LeafLevel) {
		t.Fatalf("cold closure: %d nodes (%v)", len(nodes), err)
	}
}

func testPersistence(t *testing.T, cfg Config) {
	if cfg.Reopen == nil {
		t.Skip("backend has no reopen persistence")
	}
	b, lay := cfg.generate(t)
	rng := rand.New(rand.NewSource(10))
	id := lay.RandomNode(rng)
	want, err := b.Node(id)
	if err != nil {
		t.Fatal(err)
	}
	tid := lay.RandomTextNode(rng)
	wantText, err := b.Text(tid)
	if err != nil {
		t.Fatal(err)
	}
	b2 := cfg.Reopen(t, b)
	defer b2.Close()
	got, err := b2.Node(id)
	if err != nil || got != want {
		t.Fatalf("after reopen: %+v %v, want %+v", got, err, want)
	}
	gotText, err := b2.Text(tid)
	if err != nil || gotText != wantText {
		t.Fatalf("text lost across reopen (%v)", err)
	}
	kids, err := b2.Children(1)
	if err != nil || len(kids) != hyper.FanOut {
		t.Fatalf("root children after reopen: %v %v", kids, err)
	}
}

func testErrors(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	missing := hyper.NodeID(lay.Total() + 1000)
	if _, err := b.Node(missing); err == nil {
		t.Fatal("Node of missing id succeeded")
	}
	if _, err := b.Hundred(missing); err == nil {
		t.Fatal("Hundred of missing id succeeded")
	}
	if _, err := b.Children(missing); err == nil {
		t.Fatal("Children of missing id succeeded")
	}
	// Content type mismatches.
	if _, err := b.Text(1); err == nil { // root is internal
		t.Fatal("Text of internal node succeeded")
	}
	rng := rand.New(rand.NewSource(11))
	tid := lay.RandomTextNode(rng)
	if _, err := b.Form(tid); err == nil {
		t.Fatal("Form of text node succeeded")
	}
	// Duplicate creation.
	if err := b.CreateNode(hyper.Node{ID: 1}, 0); err == nil {
		t.Fatal("duplicate CreateNode succeeded")
	}
}

func testSchemaModification(t *testing.T, cfg Config) {
	b, lay := cfg.generate(t)
	defer b.Close()
	sm, ok := b.(hyper.SchemaModifier)
	if !ok {
		t.Skip("backend does not implement dynamic schema modification")
	}
	// §6.8 extension 1: add a DrawNode type with a new attribute.
	kind, err := sm.AddClass("DrawNode")
	if err != nil {
		t.Fatal(err)
	}
	if kind < hyper.KindUser {
		t.Fatalf("dynamic class got reserved kind %d", kind)
	}
	if _, err := sm.AddClass("DrawNode"); err == nil {
		t.Fatal("duplicate class registration succeeded")
	}
	if err := sm.AddAttribute(kind, "circles"); err != nil {
		t.Fatal(err)
	}
	classes, err := sm.Classes()
	if err != nil || classes["DrawNode"] != kind {
		t.Fatalf("Classes = %v %v", classes, err)
	}
	// Attach a dynamic attribute to an existing node.
	rng := rand.New(rand.NewSource(12))
	id := lay.RandomNode(rng)
	if err := sm.SetAttr(id, "circles", 7); err != nil {
		t.Fatal(err)
	}
	v, found, err := sm.Attr(id, "circles")
	if err != nil || !found || v != 7 {
		t.Fatalf("Attr = %d %v %v", v, found, err)
	}
	if _, found, _ := sm.Attr(id, "rectangles"); found {
		t.Fatal("unset attribute reported present")
	}
}

// Benchmarks regenerating the paper's measurement surfaces, one bench
// per experiment row (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded results):
//
//	E1  BenchmarkCreate*            — §5.3 database creation
//	E2  BenchmarkNameLookup*        — O1/O2
//	E3  BenchmarkRangeLookup*       — O3/O4
//	E4  BenchmarkGroupLookup*       — O5A/O5B/O6
//	E5  BenchmarkRefLookup*         — O7A/O7B/O8
//	E6  BenchmarkSeqScan            — O9
//	E7  BenchmarkClosure{1N,MN,MNAtt}, BenchmarkColdClosure* — O10/O14/O15
//	E8  BenchmarkClosure1NAtt*, BenchmarkClosureMNAttLinkSum — O11–O13/O18
//	E9  BenchmarkTextNodeEdit, BenchmarkFormNodeEdit — O16/O17
//	E10 the Cold* variants against their warm counterparts
//	E11 BenchmarkClusterAblation*   — clustering on/off
//	E12 every bench's {oodb,reldb,memdb} sub-benchmarks
//	E13 BenchmarkRemote*            — workstation/server
//	E14 BenchmarkExtension*         — R4/R5/R11 exercises
//	E15 BenchmarkMultiUser          — concurrent optimistic commits
//
// Most benches run against a level-4 database (781 nodes), the paper's
// smallest configuration; cmd/hyperbench runs the same workloads at
// levels 5 and 6.
package hypermodel_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"hypermodel"
	"hypermodel/internal/acl"
	"hypermodel/internal/backend/oodb"
	"hypermodel/internal/harness"
	"hypermodel/internal/hyper"
	"hypermodel/internal/remote"
	"hypermodel/internal/storage/store"
	"hypermodel/internal/txn"
	"hypermodel/internal/version"
)

const (
	benchLevel = 4
	benchSeed  = 1
)

// shared caches one generated database per backend kind for the whole
// bench run; tearing it down is left to the OS temp cleaner when the
// process exits (b.Cleanup would rebuild per sub-benchmark).
type shared struct {
	once sync.Once
	b    hyper.Backend
	lay  hyper.Layout
	err  error
}

var sharedDBs = map[harness.BackendKind]*shared{
	harness.KindOODB:  {},
	harness.KindRelDB: {},
	harness.KindMemDB: {},
}

func sharedDB(b *testing.B, kind harness.BackendKind) (hyper.Backend, hyper.Layout) {
	b.Helper()
	s := sharedDBs[kind]
	s.once.Do(func() {
		dir, err := os.MkdirTemp("", "hmbench-"+string(kind)+"-*")
		if err != nil {
			s.err = err
			return
		}
		s.b, s.lay, _, s.err = harness.Build(kind, dir, benchLevel, benchSeed)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.b, s.lay
}

// perBackend runs fn as a sub-benchmark on each backend (E12's axis).
func perBackend(b *testing.B, fn func(b *testing.B, db hyper.Backend, lay hyper.Layout)) {
	for _, kind := range harness.AllBackends {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			db, lay := sharedDB(b, kind)
			fn(b, db, lay)
		})
	}
}

// --- E1: database creation (§5.3) ---

func BenchmarkCreate(b *testing.B) {
	for _, kind := range harness.AllBackends {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db, lay, _, err := harness.Build(kind, b.TempDir(), 3, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				_ = lay
			}
			b.ReportMetric(float64(hypermodel.TotalNodes(3)), "nodes/op")
		})
	}
}

// --- E2: name lookup (O1, O2) ---

func BenchmarkNameLookup(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(2))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomNode(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.NameLookup(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkNameOIDLookup(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(3))
		oids := make([]hypermodel.OID, b.N)
		for i := range oids {
			oid, err := db.OIDOf(lay.RandomNode(rng))
			if errors.Is(err, hypermodel.ErrNoOIDs) {
				b.Skip("backend has no object identifiers (O2 not applicable)")
			}
			if err != nil {
				b.Fatal(err)
			}
			oids[i] = oid
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.NameOIDLookup(db, oids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E3: range lookup (O3, O4) ---

func BenchmarkRangeLookupHundred(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(4))
		b.ResetTimer()
		nodes := 0
		for i := 0; i < b.N; i++ {
			ids, err := hypermodel.RangeLookupHundred(db, int32(rng.Intn(91)))
			if err != nil {
				b.Fatal(err)
			}
			nodes += len(ids)
		}
		b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	})
}

func BenchmarkRangeLookupMillion(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(5))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.RangeLookupMillion(db, int32(rng.Intn(990001))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E4: group lookup (O5A, O5B, O6) ---

func BenchmarkGroupLookup1N(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(6))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomInternal(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.GroupLookup1N(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGroupLookupMN(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(7))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomInternal(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.GroupLookupMN(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGroupLookupMNAtt(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(8))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomNode(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.GroupLookupMNAtt(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E5: reference lookup (O7A, O7B, O8) ---

func BenchmarkRefLookup1N(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(9))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomNonRoot(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.RefLookup1N(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRefLookupMN(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(10))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomNonRoot(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.RefLookupMN(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRefLookupMNAtt(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(11))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomNode(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.RefLookupMNAtt(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E6: sequential scan (O9) ---

func BenchmarkSeqScan(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := hypermodel.SeqScan(db, 1, hypermodel.NodeID(lay.Total()))
			if err != nil {
				b.Fatal(err)
			}
			if n != lay.Total() {
				b.Fatalf("scan visited %d nodes", n)
			}
		}
		b.ReportMetric(float64(lay.Total()), "nodes/op")
	})
}

// --- E7: closure traversals (O10, O14, O15) ---

func BenchmarkClosure1N(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(12))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomClosureStart(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.Closure1N(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(hyper.ClosureSize(lay.ClosureStartLevel(), lay.LeafLevel)), "nodes/op")
	})
}

func BenchmarkClosureMN(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(13))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomClosureStart(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.ClosureMN(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClosureMNAtt(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(14))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomClosureStart(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.ClosureMNAtt(db, ids[i], 25); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// closure1NPerNode is the seed's per-node recursive closure, kept as
// the baseline the frontier-batched Closure1N is measured against.
func closure1NPerNode(db hyper.Backend, start hypermodel.NodeID) ([]hypermodel.NodeID, error) {
	var out []hypermodel.NodeID
	var walk func(id hypermodel.NodeID) error
	walk = func(id hypermodel.NodeID) error {
		out = append(out, id)
		kids, err := db.Children(id)
		if err != nil {
			return err
		}
		for _, k := range kids {
			if err := walk(k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(start); err != nil {
		return nil, err
	}
	return out, nil
}

// closureMNPerNode is the seed's per-node M-N closure baseline.
func closureMNPerNode(db hyper.Backend, start hypermodel.NodeID) ([]hypermodel.NodeID, error) {
	seen := map[hypermodel.NodeID]bool{}
	var out []hypermodel.NodeID
	var walk func(id hypermodel.NodeID) error
	walk = func(id hypermodel.NodeID) error {
		if seen[id] {
			return nil
		}
		seen[id] = true
		out = append(out, id)
		parts, err := db.Parts(id)
		if err != nil {
			return err
		}
		for _, p := range parts {
			if err := walk(p); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(start); err != nil {
		return nil, err
	}
	return out, nil
}

// BenchmarkClosure1NBatch runs the frontier-batched closure over the
// whole test tree; BenchmarkClosure1NPerNode runs the per-node
// baseline on the identical workload. The gap is the batching win.
func BenchmarkClosure1NBatch(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.Closure1N(db, lay.FirstID()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(lay.Total()), "nodes/op")
	})
}

func BenchmarkClosure1NPerNode(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := closure1NPerNode(db, lay.FirstID()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(lay.Total()), "nodes/op")
	})
}

// BenchmarkClosureMNBatch / PerNode: the same pair for the M-N
// closure, whose frontier-batched form BFS-dedups before fetching.
func BenchmarkClosureMNBatch(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.ClosureMN(db, lay.FirstID()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClosureMNPerNode(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := closureMNPerNode(db, lay.FirstID()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColdClosure1N measures the cold path (E10): every iteration
// drops the caches first, so the closure pays disk or image reloads.
func BenchmarkColdClosure1N(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(15))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomClosureStart(rng) })
		if err := db.Commit(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.DropCaches(); err != nil {
				b.Fatal(err)
			}
			if _, err := hypermodel.Closure1N(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E8: other closure operations (O11, O12, O13, O18) ---

func BenchmarkClosure1NAttSum(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(16))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomClosureStart(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := hypermodel.Closure1NAttSum(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClosure1NAttSet(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(17))
		start := lay.RandomClosureStart(rng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.Closure1NAttSet(db, start); err != nil {
				b.Fatal(err)
			}
			if err := db.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		// Leave the attribute restored for other benches.
		if b.N%2 == 1 {
			if _, err := hypermodel.Closure1NAttSet(db, start); err != nil {
				b.Fatal(err)
			}
			if err := db.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClosure1NPred(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(18))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomClosureStart(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.Closure1NPred(db, ids[i], int32(i%990001)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClosureMNAttLinkSum(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(19))
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomClosureStart(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.ClosureMNAttLinkSum(db, ids[i], 25); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E9: editing (O16, O17) ---

func BenchmarkTextNodeEdit(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(20))
		id := lay.RandomTextNode(rng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := hypermodel.TextNodeEdit(db, id, i%2 == 0); err != nil {
				b.Fatal(err)
			}
			if err := db.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if b.N%2 == 1 { // restore
			if err := hypermodel.TextNodeEdit(db, id, false); err != nil {
				b.Fatal(err)
			}
			if err := db.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFormNodeEdit(b *testing.B) {
	perBackend(b, func(b *testing.B, db hyper.Backend, lay hyper.Layout) {
		rng := rand.New(rand.NewSource(21))
		id, ok := lay.RandomFormNode(rng)
		if !ok {
			b.Skip("no form nodes at this level")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := hypermodel.Rect{X: i % 50, Y: i % 50, W: 25 + i%26, H: 25 + i%26}
			if err := hypermodel.FormNodeEdit(db, id, r); err != nil {
				b.Fatal(err)
			}
			if err := db.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E11: clustering ablation ---

func BenchmarkClusterAblation(b *testing.B) {
	variants := []struct {
		name       string
		clustering bool
		order      hyper.Order
	}{
		{"clustered", true, hypermodel.OrderDFS},
		{"unclustered", false, hypermodel.OrderBFS},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			dir := b.TempDir()
			db, err := hypermodel.OpenOODBWith(dir+"/db", hypermodel.OODBOptions{Clustering: v.clustering})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			lay, _, err := hypermodel.Generate(db, hypermodel.GenConfig{LeafLevel: benchLevel, Seed: benchSeed, Order: v.order})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(22))
			ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomClosureStart(rng) })
			if err := db.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.DropCaches(); err != nil {
					b.Fatal(err)
				}
				if _, err := hypermodel.Closure1N(db, ids[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_, _, reads := db.CacheStats()
			b.ReportMetric(float64(reads)/float64(b.N), "diskreads/op")
		})
	}
}

// --- E13: workstation/server ---

// remoteClientOf unwraps the page-server client under a DB returned by
// DialServer (ok is false for local backends).
func remoteClientOf(db hypermodel.DB) (*remote.Client, bool) {
	odb, ok := db.(*oodb.DB)
	if !ok {
		return nil, false
	}
	client, ok := odb.Store().(*remote.Client)
	return client, ok
}

func BenchmarkRemote(b *testing.B) {
	dir, err := os.MkdirTemp("", "hmbench-remote-*")
	if err != nil {
		b.Fatal(err)
	}
	addr, stop, err := hypermodel.StartServer(dir+"/srv.db", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	db, err := hypermodel.DialServer(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	lay, _, err := hypermodel.Generate(db, hypermodel.GenConfig{LeafLevel: benchLevel, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))

	b.Run("warmNameLookup", func(b *testing.B) {
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomNode(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.NameLookup(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coldClosure1N", func(b *testing.B) {
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomClosureStart(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.DropCaches(); err != nil {
				b.Fatal(err)
			}
			if _, err := hypermodel.Closure1N(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warmClosure1N", func(b *testing.B) {
		ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomClosureStart(rng) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hypermodel.Closure1N(db, ids[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Round-trip accounting for the cold full-tree closure: frames/op
	// is the number of protocol round trips each closure costs, and
	// batchframes/op how many of them were opGetPages (one per BFS
	// frontier with any missing pages). The per-node baseline instead
	// pays roughly one frame per page it touches.
	b.Run("coldClosure1NRoundTrips", func(b *testing.B) {
		client, ok := remoteClientOf(db)
		if !ok {
			b.Skip("store is not a remote client")
		}
		b.ResetTimer()
		startTotal, startBatched := client.FrameStats()
		for i := 0; i < b.N; i++ {
			if err := db.DropCaches(); err != nil {
				b.Fatal(err)
			}
			if _, err := hypermodel.Closure1N(db, lay.FirstID()); err != nil {
				b.Fatal(err)
			}
		}
		total, batched := client.FrameStats()
		b.ReportMetric(float64(total-startTotal)/float64(b.N), "frames/op")
		b.ReportMetric(float64(batched-startBatched)/float64(b.N), "batchframes/op")
	})
	b.Run("coldClosure1NPerNodeRoundTrips", func(b *testing.B) {
		client, ok := remoteClientOf(db)
		if !ok {
			b.Skip("store is not a remote client")
		}
		b.ResetTimer()
		startTotal, _ := client.FrameStats()
		for i := 0; i < b.N; i++ {
			if err := db.DropCaches(); err != nil {
				b.Fatal(err)
			}
			if _, err := closure1NPerNode(db, lay.FirstID()); err != nil {
				b.Fatal(err)
			}
		}
		total, _ := client.FrameStats()
		b.ReportMetric(float64(total-startTotal)/float64(b.N), "frames/op")
	})
}

// --- E14: extensions ---

func BenchmarkExtensionVersionCapture(b *testing.B) {
	db, lay := sharedDB(b, harness.KindOODB)
	vs := version.New(db)
	rng := rand.New(rand.NewSource(24))
	ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomNode(rng) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vs.Capture(ids[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionGuardedRead(b *testing.B) {
	db, lay := sharedDB(b, harness.KindOODB)
	if err := acl.SetPolicy(db, 2, acl.Policy{Public: acl.Read}); err != nil {
		b.Fatal(err)
	}
	defer acl.RemovePolicy(db, 2)
	guard := acl.NewGuard(db, "bench")
	rng := rand.New(rand.NewSource(25))
	ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomNode(rng) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := guard.Hundred(ids[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionDynamicAttr(b *testing.B) {
	db, lay := sharedDB(b, harness.KindOODB)
	sm := db.(hypermodel.SchemaModifier)
	if _, err := sm.AddClass(fmt.Sprintf("BenchClass%d", b.N)); err != nil {
		b.Skip("class already registered in this process")
	}
	rng := rand.New(rand.NewSource(26))
	ids := drawIDs(b.N, func() hypermodel.NodeID { return lay.RandomNode(rng) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sm.SetAttr(ids[i], "benchattr", int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E15: multi-user ---

func BenchmarkMultiUserDisjoint(b *testing.B) {
	dir, err := os.MkdirTemp("", "hmbench-multi-*")
	if err != nil {
		b.Fatal(err)
	}
	addr, stop, err := hypermodel.StartServer(dir+"/srv.db", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	boot, err := hypermodel.DialServer(addr)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := hypermodel.Generate(boot, hypermodel.GenConfig{LeafLevel: 2, Seed: benchSeed}); err != nil {
		b.Fatal(err)
	}
	if err := boot.Commit(); err != nil {
		b.Fatal(err)
	}
	boot.Close()

	const users = 2
	dbs := make([]hyper.Backend, users)
	for u := range dbs {
		db, err := hypermodel.DialServer(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		dbs[u] = db
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, users)
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				target := hypermodel.NodeID(2 + u) // distinct level-1 nodes
				errs <- txn.RunN(dbs[u], 100, func() error {
					h, err := dbs[u].Hundred(target)
					if err != nil {
						return err
					}
					return dbs[u].SetHundred(target, (h+1)%100)
				})
			}(u)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(users), "txns/op")
}

func drawIDs(n int, draw func() hypermodel.NodeID) []hypermodel.NodeID {
	out := make([]hypermodel.NodeID, n)
	for i := range out {
		out[i] = draw()
	}
	return out
}

// --- E19: group commit ---

// BenchmarkCommit measures ns/commit through the page server's commit
// path as the number of concurrent committers grows. batch=1 is the
// floor — every commit pays its own fsync; at batch=4 and batch=16 the
// group-commit leaders batch the queue and amortise the fsync, so
// ns/commit should fall while commits/fsync rises toward the batch
// size. Each committer rotates its own TextNode (disjoint pages), so
// the benchmark isolates commit-path cost from validation conflicts.
func BenchmarkCommit(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		batch := batch
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchCommit(b, batch)
		})
	}
}

func benchCommit(b *testing.B, writers int) {
	dir, err := os.MkdirTemp("", "hmbench-commit-*")
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(dir+"/bench.db", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := remote.NewServer(st)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	boot, err := remote.Dial(addr.String(), remote.ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	bdb, err := oodb.New(boot, oodb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	const level = 3
	if _, _, err := hyper.Generate(bdb, hyper.GenConfig{LeafLevel: level, Seed: benchSeed}); err != nil {
		b.Fatal(err)
	}
	if err := bdb.Commit(); err != nil {
		b.Fatal(err)
	}
	if err := bdb.Close(); err != nil {
		b.Fatal(err)
	}

	firstLeaf, lastLeaf := hyper.LevelIDs(level)
	leaves := int(lastLeaf - firstLeaf + 1)
	dbs := make([]*oodb.DB, writers)
	targets := make([]hyper.NodeID, writers)
	for u := 0; u < writers; u++ {
		j := u * (leaves / writers)
		if hyper.IsFormLeaf(j) {
			j = (j + 1) % leaves
		}
		targets[u] = firstLeaf + hyper.NodeID(j)
		client, err := remote.Dial(addr.String(), remote.ClientOptions{})
		if err != nil {
			b.Fatal(err)
		}
		dbs[u], err = oodb.New(client, oodb.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		defer dbs[u].Close()
	}

	flushes0, _, _, _, _ := srv.GroupCommitStats()
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for u := 0; u < writers; u++ {
		n := b.N / writers
		if u < b.N%writers {
			n++
		}
		wg.Add(1)
		go func(u, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := txn.RunN(dbs[u], 300, rotateTxn(dbs[u], targets[u])); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(u, n)
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	flushes, _, _, _, _ := srv.GroupCommitStats()
	if df := flushes - flushes0; df > 0 {
		b.ReportMetric(float64(b.N)/float64(df), "commits/fsync")
	}
}

// Command hyperbench regenerates the paper's evaluation: every
// operation of §6 under the cold/warm protocol, the §5.3 creation
// measurements, and the repository's additional experiments (see
// DESIGN.md §4 for the experiment index).
//
// Examples:
//
//	hyperbench                                 # full matrix, level 4, all backends
//	hyperbench -level 6 -backends oodb         # the paper's big database
//	hyperbench -exp cluster -level 5           # E11 clustering ablation
//	hyperbench -exp remote                     # E13 workstation/server
//	hyperbench -exp multiuser -users 4         # E15
//	hyperbench -exp concurrency -clients 1024  # E18 pipelined wire throughput
//	hyperbench -exp writers -writers 8         # E19 group-commit throughput
//	hyperbench -exp shards -shards 4           # E20 sharded scaling + chaos soak
//	hyperbench -list                           # the experiment index
//	hyperbench -csv results.csv                # machine-readable output
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"hypermodel/internal/harness"
	"hypermodel/internal/hyper"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hyperbench: ")
	var (
		exp      = flag.String("exp", "all", "experiment: create, ops, cluster, remote, ext, cache, multiuser, throughput, concurrency, writers, shards or all (see -list)")
		list     = flag.Bool("list", false, "print the experiment index and exit")
		backends = flag.String("backends", "all", "comma-separated backends (oodb,reldb,memdb) or all")
		level    = flag.Int("level", 4, "leaf level (paper: 4, 5, 6)")
		iters    = flag.Int("iters", 50, "iterations per operation (paper: 50)")
		depth    = flag.Int("depth", 25, "M-N attribute closure depth (paper: 25)")
		seed     = flag.Int64("seed", 1, "random seed")
		users    = flag.Int("users", 3, "users for the multiuser experiment")
		userOps  = flag.Int("userops", 10, "transactions per user for the multiuser experiment")
		parallel = flag.Int("parallel", 4, "max concurrent readers for the throughput experiment")
		clients  = flag.Int("clients", 1024, "max concurrent clients for the concurrency experiment")
		writers  = flag.Int("writers", 8, "max concurrent writers for the writers experiment")
		rtt      = flag.Duration("rtt", time.Millisecond, "simulated link round trip for the concurrency and shards experiments (0 = raw loopback)")
		shards   = flag.Int("shards", 4, "max shard count for the shards experiment (sweep doubles up to it)")
		soak     = flag.Duration("soak", 2*time.Second, "chaos-soak duration for the shards experiment (0 = skip the soak)")
		window   = flag.Duration("window", time.Second, "measurement window per throughput configuration")
		opsList  = flag.String("ops", "", "comma-separated operation filter, e.g. O10,O14")
		dir      = flag.String("dir", "", "working directory (default: a temp dir, removed afterwards)")
		csvPath  = flag.String("csv", "", "also write the operation matrix as CSV to this file")
	)
	flag.Parse()

	if *list {
		printExperiments()
		return
	}
	known := map[string]bool{
		"all": true, "create": true, "ops": true, "cluster": true, "remote": true,
		"ext": true, "cache": true, "multiuser": true, "throughput": true,
		"concurrency": true, "writers": true, "shards": true,
	}
	if !known[*exp] {
		log.Fatalf("unknown experiment %q; run hyperbench -list for the index", *exp)
	}

	workdir := *dir
	if workdir == "" {
		var err error
		workdir, err = os.MkdirTemp("", "hyperbench-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(workdir)
	} else if err := os.MkdirAll(workdir, 0o755); err != nil {
		log.Fatal(err)
	}

	var kinds []harness.BackendKind
	if *backends == "all" {
		kinds = harness.AllBackends
	} else {
		for _, k := range strings.Split(*backends, ",") {
			kinds = append(kinds, harness.BackendKind(strings.TrimSpace(k)))
		}
	}
	cfg := harness.Config{Iterations: *iters, Seed: *seed, Depth: *depth}
	if *opsList != "" {
		for _, o := range strings.Split(*opsList, ",") {
			cfg.Ops = append(cfg.Ops, strings.TrimSpace(o))
		}
		if err := harness.CheckOps(cfg.Ops); err != nil {
			log.Fatal(err)
		}
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	var csv *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		csv = f
	}

	if want("create") || want("ops") {
		for _, kind := range kinds {
			bdir := fmt.Sprintf("%s/%s", workdir, kind)
			if err := os.MkdirAll(bdir, 0o755); err != nil {
				log.Fatal(err)
			}
			b, lay, tm, err := harness.Build(kind, bdir, *level, *seed)
			if err != nil {
				log.Fatalf("%s: %v", kind, err)
			}
			if want("create") {
				harness.RenderCreation(os.Stdout,
					fmt.Sprintf("E1: database creation — %s, level %d (%d nodes)", kind, *level, lay.Total()), tm)
				if err := b.Close(); err != nil {
					log.Fatalf("%s: close before open timing: %v", kind, err)
				}
				open, err := harness.TimeOpen(kind, bdir)
				if err != nil {
					log.Fatalf("%s: open timing: %v", kind, err)
				}
				fmt.Printf("database open (existing %s, level %d): %.1fms\n\n", kind, *level, float64(open.Nanoseconds())/1e6)
				b, err = harness.OpenBackend(kind, bdir)
				if err != nil {
					log.Fatalf("%s: reopen: %v", kind, err)
				}
				lay = hypLayout(*level, *seed)
			}
			if want("ops") {
				results, err := harness.Run(b, lay, cfg)
				if err != nil {
					b.Close()
					log.Fatalf("%s: %v", kind, err)
				}
				harness.RenderOperations(os.Stdout,
					fmt.Sprintf("E2–E10: operations — %s, level %d, %d iterations", kind, *level, cfg.Iterations), results)
				if csv != nil {
					harness.RenderCSV(csv, string(kind), *level, results)
				}
			}
			if err := b.Close(); err != nil {
				log.Fatalf("%s: close: %v", kind, err)
			}
		}
	}

	if want("cluster") {
		results, err := harness.RunClusterAblation(workdir, *level, *seed, cfg)
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
		harness.RenderClusterAblation(os.Stdout, results)
	}

	if want("remote") {
		rdir := workdir + "/remote"
		if err := os.MkdirAll(rdir, 0o755); err != nil {
			log.Fatal(err)
		}
		results, err := harness.RunRemote(rdir, *level, *seed, cfg)
		if err != nil {
			log.Fatalf("remote: %v", err)
		}
		harness.RenderRemote(os.Stdout, results)
	}

	if want("ext") {
		edir := workdir + "/ext"
		if err := os.MkdirAll(edir, 0o755); err != nil {
			log.Fatal(err)
		}
		results, err := harness.RunExtensions(edir, *level, *seed)
		if err != nil {
			log.Fatalf("ext: %v", err)
		}
		harness.RenderExtensions(os.Stdout, results)
	}

	if want("cache") {
		cdir := workdir + "/cache"
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			log.Fatal(err)
		}
		results, err := harness.RunCacheSweep(cdir, *level, *seed, []int{64, 256, 1024, 4096}, cfg)
		if err != nil {
			log.Fatalf("cache: %v", err)
		}
		harness.RenderCacheSweep(os.Stdout, *level, results)
	}

	if want("throughput") {
		tdir := workdir + "/throughput"
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			log.Fatal(err)
		}
		results, err := harness.RunThroughput(tdir, *level, *seed, *parallel, *window)
		if err != nil {
			log.Fatalf("throughput: %v", err)
		}
		harness.RenderThroughput(os.Stdout, *level, results)
	}

	if want("concurrency") {
		cdir := workdir + "/concurrency"
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			log.Fatal(err)
		}
		counts := []int{}
		for n := 64; n < *clients; n *= 4 {
			counts = append(counts, n)
		}
		if *clients >= 1 {
			counts = append(counts, *clients)
		}
		results, err := harness.RunConcurrencySweep(cdir, min(*level, 4), *seed, counts, *window, *rtt)
		if err != nil {
			log.Fatalf("concurrency: %v", err)
		}
		harness.RenderConcurrencySweep(os.Stdout, min(*level, 4), results)
	}

	if want("writers") {
		wdir := workdir + "/writers"
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			log.Fatal(err)
		}
		counts := []int{}
		for n := 1; n < *writers; n *= 2 {
			counts = append(counts, n)
		}
		if *writers >= 1 {
			counts = append(counts, *writers)
		}
		results, err := harness.RunWriters(wdir, min(*level, 4), *seed, counts, *window)
		if err != nil {
			log.Fatalf("writers: %v", err)
		}
		harness.RenderWriters(os.Stdout, min(*level, 4), results)
	}

	if want("shards") {
		sdir := workdir + "/shards"
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			log.Fatal(err)
		}
		counts := []int{}
		for n := 1; n < *shards; n *= 2 {
			counts = append(counts, n)
		}
		if *shards >= 1 {
			counts = append(counts, *shards)
		}
		results, err := harness.RunShardSweep(sdir, counts, *window, *rtt, 0, 0)
		if err != nil {
			log.Fatalf("shards: %v", err)
		}
		harness.RenderShardSweep(os.Stdout, results)
		if *soak > 0 && *shards >= 2 {
			chaos, err := harness.RunShardChaos(sdir+"/chaos", min(*shards, 4), *soak)
			if err != nil {
				log.Fatalf("shards chaos: %v", err)
			}
			harness.RenderShardChaos(os.Stdout, chaos)
		}
	}

	if want("multiuser") {
		mdir := workdir + "/multi"
		if err := os.MkdirAll(mdir, 0o755); err != nil {
			log.Fatal(err)
		}
		results, err := harness.RunMultiUser(mdir, min(*level, 3), *seed, *users, *userOps)
		if err != nil {
			log.Fatalf("multiuser: %v", err)
		}
		harness.RenderMultiUser(os.Stdout, results)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// printExperiments writes the E1–E20 index: what each -exp value runs.
func printExperiments() {
	index := []struct{ name, id, desc string }{
		{"create", "E1", "database creation and open timings (§5.3)"},
		{"ops", "E2–E10", "the twenty operations under the cold/warm protocol (§6)"},
		{"cluster", "E11", "clustering ablation: closure traversals with placement on/off"},
		{"ops (all backends)", "E12", "backend comparison axis: oodb vs reldb vs memdb"},
		{"remote", "E13", "workstation/server architecture: local vs page-server backend"},
		{"ext", "E14", "schema extension and dynamic-class operations (R4)"},
		{"multiuser", "E15", "multi-user optimistic concurrency with conflict retries (R8)"},
		{"cache", "E16", "workstation cache-size sweep (cold/warm sensitivity)"},
		{"throughput", "E17", "concurrent read-closure throughput on a shared store"},
		{"concurrency", "E18", "pipelined wire throughput vs the request/response baseline"},
		{"writers", "E19", "multi-writer commit throughput: group commit vs serialized"},
		{"shards", "E20", "horizontal shard scaling sweep plus the cross-shard chaos soak"},
	}
	fmt.Println("experiments (-exp NAME; default all):")
	for _, e := range index {
		fmt.Printf("  %-7s %-20s %s\n", e.id, e.name, e.desc)
	}
}

// hypLayout reconstructs the layout of a database generated with the
// default base at the given level and seed.
func hypLayout(level int, seed int64) hyper.Layout {
	return hyper.Layout{LeafLevel: level, Seed: seed, Base: 1}
}

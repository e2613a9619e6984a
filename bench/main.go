// Command bench is the repository's own benchmark: five workloads run
// as closed loops from this one process, every answer checked against
// a memdb oracle, end-to-end metrics from an untraced window and
// per-layer metrics from a separate traced pass. See README.md.
//
//	go run ./bench                              all workloads, both passes, probes
//	go run ./bench -workload W -trace 0|1       one run, one result line (BENCHMARK.json's contract)
//	go run ./bench -repeat 5 > A.json           five invocations' worth, for -compare
//	go run ./bench -compare A.json B.json       per workload × metric verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// header says where and how a report was produced.
type header struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// run is one workload's result within a report.
type run struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	result
}

// report is what the all-workloads mode prints and -compare reads.
type report struct {
	Header header `json:"header"`
	Runs   []run  `json:"runs"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and print one result line")
	seed := fs.Int64("seed", 1, "seed of the generated database and of every input")
	seconds := fs.Float64("seconds", 20, "length of each timed window")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics (traced pass and probes)")
	repeat := fs.Int("repeat", 1, "without -workload: how many times to run everything")
	compare := fs.Bool("compare", false, "compare two reports: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files")
			return 2
		}
		if err := compareReports(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || *repeat < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be positive and there are no positional arguments")
		return 2
	}

	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		size:   defaultSizing,
		outDir: filepath.Join("bench", "out"),
	}
	if fi, err := os.Stat("bench"); err != nil || !fi.IsDir() {
		cfg.outDir = "out" // run from inside bench/
	}
	defer os.RemoveAll(filepath.Join(cfg.outDir, "tmp"))

	hdr := header{commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed, *seconds}
	fmt.Fprintf(stderr, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %gs windows\n",
		hdr.Commit, hdr.Go, hdr.NProc, hdr.GOMAXPROCS, hdr.Seed, hdr.Seconds)

	enc := json.NewEncoder(stdout)
	if *workload != "" {
		sp, ok := workloadNamed(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		res, err := runOne(sp, cfg, *trace != 0, nil)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		// The contract's metrics carry a value and a unit, nothing more.
		for name, m := range res.Metrics {
			m.Samples = 0
			res.Metrics[name] = m
		}
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	rep := report{Header: hdr}
	ok := true
	for i := 0; i < *repeat; i++ {
		probes, err := runProbes(cfg, cfg.probeTime())
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, sp := range workloads {
			for tr := 0; tr <= 1; tr++ {
				res, err := runOne(sp, cfg, tr == 1, probes)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				fmt.Fprintf(stderr, "bench: run %d %s trace=%d: %d attempted, %d failed\n", i+1, sp.name, tr, res.Attempted, res.Failed)
				ok = ok && res.Correct
				rep.Runs = append(rep.Runs, run{sp.name, tr, res})
			}
		}
	}
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs one workload's untraced window or its traced pass. A
// traced run needs the probes; it runs them itself unless the caller
// already has.
func runOne(sp spec, cfg runConfig, traced bool, probes map[string]metric) (result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	if !traced {
		return runEndToEnd(sp, cfg)
	}
	if probes == nil {
		var err error
		if probes, err = runProbes(cfg, cfg.probeTime()); err != nil {
			return result{}, err
		}
	}
	return runTraced(sp, cfg, probes)
}

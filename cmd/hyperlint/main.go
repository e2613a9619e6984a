// Command hyperlint machine-checks the repo's correctness invariants
// with the seven analyzers in internal/analysis (detrand, erris,
// facade, lifecycle, lockorder, vfsonly, wiresym).
//
// It runs two ways:
//
//   - As a vet tool: go vet -vettool=$(pwd)/bin/hyperlint ./...
//     The go command hands it one JSON config per package (the
//     unitchecker protocol: a -V=full version probe, a -flags flag
//     enumeration, then per-package invocations with a vet.cfg path),
//     with types for dependencies coming from compiler export data.
//     This is what "make lint" runs, and it covers test files because
//     go vet analyzes test variants too.
//
//   - Standalone: go run ./cmd/hyperlint ./...
//     The driver shells out to "go list -deps -export -json" and
//     analyzes every package of the main module (non-test files).
//
// Flags: -json emits machine-readable diagnostics; -<analyzer>=false
// disables one analyzer (e.g. -erris=false). Exit status: 0 clean,
// 1 findings, 2 tool failure.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"hypermodel/internal/analysis"
	"hypermodel/internal/analysis/registry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hyperlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	versionFlag := fs.String("V", "", "print version and exit (-V=full: version with build ID, for the go command)")
	flagsFlag := fs.Bool("flags", false, "print the tool's flags as JSON (for the go command) and exit")
	jsonFlag := fs.Bool("json", false, "emit diagnostics as JSON")
	enabled := make(map[string]*bool)
	all := registry.All()
	for _, a := range all {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: hyperlint [flags] [package pattern ... | vet.cfg]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *versionFlag != "":
		return printVersion(stdout, *versionFlag)
	case *flagsFlag:
		return printFlags(stdout, all)
	}

	var active []*analysis.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runUnitchecker(rest[0], active, *jsonFlag, stdout, stderr)
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	return runStandalone(rest, active, *jsonFlag, stdout, stderr)
}

// printVersion implements the go command's tool version probe. The
// expected shape is "<name> version devel ... buildID=<contentID>";
// hashing the executable makes vet's result cache invalidate when the
// tool changes.
func printVersion(stdout io.Writer, mode string) int {
	if mode != "full" {
		fmt.Fprintln(stdout, "hyperlint version devel")
		return 0
	}
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Fprintf(stdout, "hyperlint version devel comments-go-here buildID=%02x\n", h.Sum(nil))
	return 0
}

// printFlags describes the tool's flags to the go command so "go vet
// -vettool=hyperlint -erris=false" can validate and forward them.
func printFlags(stdout io.Writer, all []*analysis.Analyzer) int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := []jsonFlag{{Name: "json", Bool: true, Usage: "emit diagnostics as JSON"}}
	for _, a := range all {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: "enable the " + a.Name + " analyzer"})
	}
	data, _ := json.Marshal(flags)
	stdout.Write(append(data, '\n'))
	return 0
}

// runPackage applies the active analyzers to one loaded package.
func runPackage(unit *unit, active []*analysis.Analyzer, stderr io.Writer) ([]analysis.Diagnostic, int) {
	var diags []analysis.Diagnostic
	exit := 0
	for _, a := range active {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      unit.fset,
			Files:     unit.files,
			Pkg:       unit.pkg,
			TypesInfo: unit.info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(stderr, "hyperlint: %s: internal error: %v\n", a.Name, err)
			exit = 2
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, exit
}

// emit writes diagnostics for one or more packages. JSON output
// mirrors the x/tools vet shape: {pkgpath: {analyzer: [{posn,
// message}]}}.
func emit(stdout, stderr io.Writer, fset *token.FileSet, byPkg map[string][]analysis.Diagnostic, asJSON bool) int {
	total := 0
	if asJSON {
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		out := make(map[string]map[string][]jsonDiag)
		for path, diags := range byPkg {
			total += len(diags)
			if len(diags) == 0 {
				continue
			}
			m := make(map[string][]jsonDiag)
			for _, d := range diags {
				m[d.Analyzer] = append(m[d.Analyzer], jsonDiag{
					Posn:    fset.Position(d.Pos).String(),
					Message: d.Message,
				})
			}
			out[path] = m
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		enc.Encode(out)
	} else {
		paths := make([]string, 0, len(byPkg))
		for path := range byPkg {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			for _, d := range byPkg[path] {
				fmt.Fprintf(stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
				total++
			}
		}
	}
	if total > 0 {
		return 1
	}
	return 0
}

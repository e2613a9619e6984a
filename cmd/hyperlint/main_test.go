package main_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hypermodel/internal/analysis/registry"
)

// toolPath holds the hyperlint binary built once for the whole test
// process; the driver tests exercise it exactly as make lint does.
var toolPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hyperlint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolPath = filepath.Join(dir, "hyperlint")
	if out, err := exec.Command("go", "build", "-o", toolPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building hyperlint: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// writeModule lays out a throwaway module for the tool to analyze.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const scratchGoMod = "module scratch\n\ngo 1.22\n"

// scratchBad contains one erris violation.
const scratchBad = `package scratch

import "errors"

var ErrX = errors.New("x")

func Check(err error) bool { return err == ErrX }
`

const scratchGood = `package scratch

import "errors"

var ErrX = errors.New("x")

func Check(err error) bool { return errors.Is(err, ErrX) }
`

// runTool executes the built binary in dir and returns exit code,
// stdout and stderr.
func runTool(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(toolPath, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running hyperlint: %v", err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

func TestFindingsExitOne(t *testing.T) {
	dir := writeModule(t, map[string]string{"go.mod": scratchGoMod, "x.go": scratchBad})
	code, _, stderr := runTool(t, dir, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "erris") || !strings.Contains(stderr, "use errors.Is") {
		t.Errorf("stderr missing erris diagnostic:\n%s", stderr)
	}
}

func TestCleanExitZero(t *testing.T) {
	dir := writeModule(t, map[string]string{"go.mod": scratchGoMod, "x.go": scratchGood})
	code, stdout, stderr := runTool(t, dir, "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, stderr)
	}
	if stdout != "" || stderr != "" {
		t.Errorf("clean run should be silent; stdout=%q stderr=%q", stdout, stderr)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{"go.mod": scratchGoMod, "x.go": scratchBad})
	code, stdout, stderr := runTool(t, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	var out map[string]map[string][]struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatalf("stdout is not the documented JSON shape: %v\n%s", err, stdout)
	}
	diags := out["scratch"]["erris"]
	if len(diags) != 1 {
		t.Fatalf("want one scratch/erris diagnostic, got %+v", out)
	}
	if !strings.Contains(diags[0].Posn, "x.go:7") {
		t.Errorf("posn = %q, want x.go:7", diags[0].Posn)
	}
	if !strings.Contains(diags[0].Message, "use errors.Is") {
		t.Errorf("message = %q", diags[0].Message)
	}
}

func TestDisableFlag(t *testing.T) {
	dir := writeModule(t, map[string]string{"go.mod": scratchGoMod, "x.go": scratchBad})
	code, _, stderr := runTool(t, dir, "-erris=false", "./...")
	if code != 0 {
		t.Fatalf("exit = %d with erris disabled, want 0; stderr:\n%s", code, stderr)
	}
}

func TestBrokenSourceExitTwo(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": scratchGoMod,
		"x.go":   "package scratch\n\nfunc Broken( {}\n",
	})
	code, _, _ := runTool(t, dir, "./...")
	if code != 2 {
		t.Fatalf("exit = %d for unparsable source, want 2", code)
	}
}

func TestVersionProbe(t *testing.T) {
	code, stdout, _ := runTool(t, t.TempDir(), "-V=full")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !strings.HasPrefix(stdout, "hyperlint version devel") || !strings.Contains(stdout, "buildID=") {
		t.Errorf("-V=full output not in the go command's expected shape: %q", stdout)
	}
}

func TestFlagsProbe(t *testing.T) {
	code, stdout, _ := runTool(t, t.TempDir(), "-flags")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal([]byte(stdout), &flags); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, stdout)
	}
	names := make(map[string]bool)
	for _, f := range flags {
		names[f.Name] = true
	}
	want := []string{"json"}
	for _, a := range registry.All() {
		want = append(want, a.Name)
	}
	for _, name := range want {
		if !names[name] {
			t.Errorf("-flags output missing %q: %s", name, stdout)
		}
	}
}

// TestVetTool drives the binary through the real go vet -vettool
// protocol, the way make lint runs it.
func TestVetTool(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		code int
	}{
		{"findings", scratchBad, 1},
		{"clean", scratchGood, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t, map[string]string{"go.mod": scratchGoMod, "x.go": tc.src})
			cmd := exec.Command("go", "vet", "-vettool="+toolPath, "./...")
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			code := 0
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("go vet: %v", err)
				}
				code = ee.ExitCode()
			}
			if code != tc.code {
				t.Fatalf("go vet exit = %d, want %d; output:\n%s", code, tc.code, out)
			}
			if tc.code == 1 && !strings.Contains(string(out), "use errors.Is") {
				t.Errorf("go vet output missing diagnostic:\n%s", out)
			}
		})
	}
}

// scratchWire holds one wiresym violation: the encoder writes a u32
// slot where the dispatch handler reads a u64.
const scratchWire = `package scratch

import "encoding/binary"

const opSwap = 1

func encodeSwap(slot uint32) []byte {
	b := []byte{opSwap}
	b = binary.LittleEndian.AppendUint32(b, slot)
	return b
}

func serve(req []byte) []byte {
	switch req[0] {
	case opSwap:
		return handleSwap(req[1:])
	}
	return nil
}

func handleSwap(body []byte) []byte {
	_ = binary.LittleEndian.Uint64(body)
	return nil
}
`

// TestJSONGolden pins the -json schema byte for byte: map from
// package path to analyzer to [{posn, message}], tab-indented, keys
// sorted. The module directory in posn strings is normalized since
// the test runs in a temp dir.
func TestJSONGolden(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  scratchGoMod,
		"x.go":    scratchBad,
		"wire.go": scratchWire,
	})
	code, stdout, stderr := runTool(t, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		real = dir
	}
	got := strings.ReplaceAll(stdout, real, "MODULE")
	got = strings.ReplaceAll(got, dir, "MODULE")
	golden := filepath.Join("testdata", "json.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-json output diverges from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

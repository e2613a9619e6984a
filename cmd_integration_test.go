package hypermodel_test

import (
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hypermodel"
)

// buildTool compiles one cmd/ binary into a shared temp dir once per
// test process.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	dir := toolDir(t)
	bin := filepath.Join(dir, name)
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	if _, err := os.Stat(bin); err == nil {
		return bin
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

var sharedToolDir string

func toolDir(t *testing.T) string {
	t.Helper()
	if sharedToolDir == "" {
		dir, err := os.MkdirTemp("", "hm-tools-*")
		if err != nil {
			t.Fatal(err)
		}
		sharedToolDir = dir
	}
	return sharedToolDir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestHypergenTool(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "hypergen")
	dir := t.TempDir()
	out := run(t, bin, "-backend", "oodb", "-dir", dir, "-level", "3", "-seed", "1")
	for _, want := range []string{"generated 156 nodes", "create internal nodes", "create leaf nodes", "final commit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("hypergen output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "oodb.db")); err != nil {
		t.Fatalf("database file not created: %v", err)
	}
}

func TestHyperqueryTool(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	gen := buildTool(t, "hypergen")
	qry := buildTool(t, "hyperquery")
	dir := t.TempDir()
	run(t, gen, "-backend", "oodb", "-dir", dir, "-level", "3")
	out := run(t, qry, "-backend", "oodb", "-dir", dir, "-level", "3",
		"select where hundred between 10 and 19 limit 3")
	if !strings.Contains(out, "plan: index scan (hundred) [10,19]") {
		t.Fatalf("hyperquery plan missing:\n%s", out)
	}
	if !strings.Contains(out, "node(s)") {
		t.Fatalf("hyperquery results missing:\n%s", out)
	}
	out = run(t, qry, "-backend", "oodb", "-dir", dir, "-level", "3", "select count")
	if !strings.Contains(out, "count = 156") {
		t.Fatalf("hyperquery count wrong:\n%s", out)
	}
}

func TestHyperqueryScrub(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	gen := buildTool(t, "hypergen")
	qry := buildTool(t, "hyperquery")
	dir := t.TempDir()
	run(t, gen, "-backend", "oodb", "-dir", dir, "-level", "3")
	db := filepath.Join(dir, "oodb.db")

	out := run(t, qry, "scrub", db)
	if !strings.Contains(out, "clean") || strings.Contains(out, "DAMAGED") {
		t.Fatalf("scrub of fresh database not clean:\n%s", out)
	}

	// Flip a payload byte in page 1 (4 KiB pages; offset 100 is past
	// the header) and scrub again: the damage must be pinpointed and
	// the exit status non-zero.
	f, err := os.OpenFile(db, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0}
	if _, err := f.ReadAt(buf, 4096+100); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, 4096+100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cmd := exec.Command(qry, "scrub", db)
	outB, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("scrub of damaged database exited 0:\n%s", outB)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("scrub of damaged database: want exit 1, got %v:\n%s", err, outB)
	}
	if !strings.Contains(string(outB), "PAGE 1 DAMAGED") {
		t.Fatalf("scrub did not pinpoint page 1:\n%s", outB)
	}

	// A missing file is an error, not a freshly created empty
	// database.
	cmd = exec.Command(qry, "scrub", filepath.Join(dir, "nope.db"))
	if outB, err = cmd.CombinedOutput(); err == nil {
		t.Fatalf("scrub of missing file succeeded:\n%s", outB)
	}
	if _, err := os.Stat(filepath.Join(dir, "nope.db")); err == nil {
		t.Fatal("scrub created the missing database file")
	}
}

func TestHyperbenchTool(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "hyperbench")
	out := run(t, bin, "-level", "3", "-iters", "3", "-backends", "oodb", "-exp", "ops", "-ops", "O1,O10")
	for _, want := range []string{"E2–E10: operations — oodb", "nameLookup", "closure1N", "ms/node"} {
		if !strings.Contains(out, want) {
			t.Fatalf("hyperbench output missing %q:\n%s", want, out)
		}
	}
	// An operation that does not exist is an error naming the valid ones,
	// not an empty table.
	bad, err := exec.Command(bin, "-level", "2", "-backends", "memdb", "-exp", "ops", "-ops", "O1,O99").CombinedOutput()
	if ee := (*exec.ExitError)(nil); !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("hyperbench -ops O1,O99: %v, want exit status 1\n%s", err, bad)
	}
	for _, want := range []string{`unknown operation "O99"`, "O5A", "O18"} {
		if !strings.Contains(string(bad), want) {
			t.Fatalf("hyperbench -ops O1,O99 output missing %q:\n%s", want, bad)
		}
	}
	// CSV emission.
	csv := filepath.Join(t.TempDir(), "r.csv")
	run(t, bin, "-level", "2", "-iters", "2", "-backends", "memdb", "-exp", "ops", "-ops", "O1", "-csv", csv)
	data, err := os.ReadFile(csv)
	if err != nil || !strings.Contains(string(data), "memdb,2,O1,nameLookup") {
		t.Fatalf("csv output wrong: %v\n%s", err, data)
	}
}

func TestHyperserverTool(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "hyperserver")
	dir := t.TempDir()
	// Pick a free port first.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "-db", filepath.Join(dir, "srv.db"), "-addr", addr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	// Wait for the listener, then drive it through the public client.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not come up")
		}
		time.Sleep(50 * time.Millisecond)
	}
	db, err := hypermodel.DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lay, _, err := hypermodel.Generate(db, hypermodel.GenConfig{LeafLevel: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	n, err := hypermodel.SeqScan(db, lay.FirstID(), lay.LastID())
	if err != nil || n != lay.Total() {
		t.Fatalf("scan through hyperserver: %d (%v)", n, err)
	}
}

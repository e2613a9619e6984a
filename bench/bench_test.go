package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// contractFile is all of BENCHMARK.json.
type contractFile struct {
	benchFile
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
}

func loadContract(t *testing.T) contractFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractFile holds BENCHMARK.json to the limits the driver
// refuses a file for, and to the tables this package computes from.
func TestContractFile(t *testing.T) {
	c := loadContract(t)
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(c.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n, unit string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", n, unit)
		}
	}
	for i, w := range c.Workloads {
		name(w.Name, "")
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here, or the reasons differ", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d computed", len(c.EndToEnd), len(endToEnd))
	}
	var setupBound float64
	for _, d := range c.EndToEnd {
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	for i, d := range c.EndToEnd {
		name(d.Name, d.Unit)
		want := endToEnd[i]
		if d.Name != want.name || d.Unit != want.unit || (d.Better == "higher") != want.higher {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v here", i, d, want)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		// The floor is the issue's, the ceiling the driver's; set-up
		// time, a median of three, is to have the widest bound.
		if d.Bound < 0.05 || d.Bound > 0.25 || d.Bound > setupBound {
			t.Errorf("%s: bound %v is outside [0.05, 0.25] or wider than setup_s's %v", d.Name, d.Bound, setupBound)
		}
	}
	if len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(c.PerLayer))
	}
	for _, d := range c.PerLayer {
		name(d.Name, d.Unit)
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
}

// TestSmoke runs every workload end to end and traced at level 4 with
// short windows, and checks that each declared metric comes out, on
// every workload, finite and backed by samples, with nothing failed.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	cfg := runConfig{
		seed:   1,
		window: 300 * time.Millisecond,
		// Sixteen warm-up rounds make round 16, which scans, the first
		// of every window, however slow the machine.
		size:   sizing{warmup: 16, rounds: 5, level: 4},
		outDir: t.TempDir(),
	}
	probes, err := runProbes(cfg, cfg.probeTime())
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range workloads {
		res, err := runOne(sp, cfg, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", sp.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(c.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, %d declared", sp.name, len(res.Metrics), len(c.EndToEnd))
		}
		for _, d := range c.EndToEnd {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || m.Samples < 1 || math.IsNaN(m.Value) || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (reported: %v)", sp.name, d.Name, m, ok)
			}
		}

		res, err = runOne(sp, cfg, true, probes)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v attempted=%d failed=%d", sp.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(c.PerLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", sp.name, len(res.Metrics), len(c.PerLayer))
		}
		for _, d := range c.PerLayer {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (reported: %v)", sp.name, d.Name, m, ok)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+sp.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", sp.name, err)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5, 1, 3})
	if q1 != 1 || q2 != 3 || q3 != 5 {
		t.Errorf("quartiles(5,1,3) = %v %v %v, want 1 3 5", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{shift(1.01), false, "same"},
		{shift(1.2), false, "worse"},
		{shift(0.8), false, "better"},
		{shift(1.2), true, "better"},
		{shift(0.8), true, "worse"},
		{[]float64{60, 100, 140, 80, 120}, false, "unresolved"},
	} {
		if got, _ := verdict(base, tc.b, tc.higher, 0.05); got != tc.want {
			t.Errorf("verdict(%v, higher=%v) = %s, want %s", tc.b, tc.higher, got, tc.want)
		}
	}
}

// TestCompare holds -compare to refusing reports that were not made
// alike and to failing when a metric got worse.
func TestCompare(t *testing.T) {
	write := func(name string, seed int64, lookupUs float64) string {
		rep := report{Header: header{Seed: seed, Seconds: 10, NProc: 2}}
		for i := 0; i < 5; i++ {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"lookup_us": {Value: lookupUs + float64(i)/100, Unit: "us"}}}
			rep.Runs = append(rep.Runs, run{"oodb-warm", 0, res})
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1, 2)
	var out strings.Builder
	if err := compareReports(&out, a, write("same.json", 1, 2)); err != nil {
		t.Errorf("equal reports: %v", err)
	}
	if err := compareReports(&out, a, write("seed.json", 2, 2)); err == nil {
		t.Error("reports with different seeds compared")
	}
	if err := compareReports(&out, a, write("slow.json", 1, 4)); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("a doubled lookup_us: error %v, output:\n%s", err, out.String())
	}
}

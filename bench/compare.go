package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json -compare needs: each gated
// metric's direction and bound, and the ungated per-layer list.
type benchFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// loadBenchFile reads BENCHMARK.json from the repository root, whether
// bench runs from there or from its own directory.
func loadBenchFile() (benchFile, error) {
	var bf benchFile
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

func loadReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// values collects one metric's value from every run of a workload.
func (rep report) values(workload string, trace int, name string) []float64 {
	var v []float64
	for _, r := range rep.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			v = append(v, m.Value)
		}
	}
	return v
}

// verdict compares side B with side A for one gated metric. Spread is
// the inter-quartile range as a share of the median, the wider side's;
// a spread wider than the bound cannot resolve a change of that size,
// so such a metric is unresolved whatever its medians say.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	if ma == 0 {
		return "unresolved", 0
	}
	spread := max((q3a-q1a)/ma, (q3b-q1b)/mb)
	change := (mb - ma) / ma
	worse := change
	if higherBetter {
		worse = -change
	}
	switch {
	case spread > bound:
		return "unresolved", change
	case worse > bound:
		return "worse", change
	case worse < -bound:
		return "better", change
	}
	return "same", change
}

func allEqual(v []float64, to float64) bool {
	for _, x := range v {
		if x != to {
			return false
		}
	}
	return true
}

// compareReports prints one row per workload × metric: each side's
// median and quartiles, the change, the bound, and the verdict. Two
// reports made with different window lengths, seeds or core counts do
// not compare; a metric that got worse, or an exact count that differs,
// is an error once the table is out.
func compareReports(w io.Writer, pathA, pathB string) error {
	bf, err := loadBenchFile()
	if err != nil {
		return err
	}
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	if ha, hb := a.Header, b.Header; ha.Seconds != hb.Seconds || ha.Seed != hb.Seed || ha.NProc != hb.NProc {
		return fmt.Errorf("%s (%gs windows, seed %d, nproc %d) and %s (%gs windows, seed %d, nproc %d) were not made alike",
			pathA, ha.Seconds, ha.Seed, ha.NProc, pathB, hb.Seconds, hb.Seed, hb.NProc)
	}
	fmt.Fprintf(w, "A: %s  commit %s  %s  nproc %d  seed %d  %gs\n", pathA, a.Header.Commit, a.Header.Go, a.Header.NProc, a.Header.Seed, a.Header.Seconds)
	fmt.Fprintf(w, "B: %s  commit %s  %s  nproc %d  seed %d  %gs\n", pathB, b.Header.Commit, b.Header.Go, b.Header.NProc, b.Header.Seed, b.Header.Seconds)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	row := func(workload, name, unit string, va, vb []float64, change, bound, verdict string) {
		q1a, ma, q3a := quartiles(va)
		q1b, mb, q3b := quartiles(vb)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%s\t%s\n",
			workload, name, unit, ma, q1a, q3a, mb, q1b, q3b, change, bound, verdict)
	}
	counts := map[string]int{}
	for _, sp := range workloads {
		for _, d := range bf.EndToEnd {
			va, vb := a.values(sp.name, 0, d.Name), b.values(sp.name, 0, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(va, vb, d.Better == "higher", d.Bound)
			counts[v]++
			row(sp.name, d.Name, d.Unit, va, vb, fmt.Sprintf("%+.1f%%", 100*change), fmt.Sprintf("%.0f%%", 100*d.Bound), v)
		}
		// Per-layer metrics have no bound; the counts that must repeat
		// exactly are checked for that, the rest are listed.
		for _, d := range bf.PerLayer {
			va, vb := a.values(sp.name, 1, d.Name), b.values(sp.name, 1, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := "-"
			if exactCounts[d.Name] {
				v = "same"
				if !allEqual(va, va[0]) || !allEqual(vb, va[0]) {
					v = "differs"
				}
				counts[v]++
			}
			row(sp.name, d.Name, d.Unit, va, vb, "", "", v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "verdicts: %d same, %d worse, %d better, %d unresolved, %d differs\n",
		counts["same"], counts["worse"], counts["better"], counts["unresolved"], counts["differs"])
	if n := counts["worse"] + counts["differs"]; n > 0 {
		return fmt.Errorf("%d rows are worse or differ", n)
	}
	return nil
}

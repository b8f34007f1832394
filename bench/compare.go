package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict classifies one (workload, end-to-end metric) pair of two reports
// by the bound and direction BENCHMARK.json fixes for the metric. worse is
// how much of A's median B lost, positive when B is worse. A pair whose
// run-to-run spread on either side is wider than the bound cannot carry a
// verdict either way and is unresolved, not unchanged.
func verdict(spec metricSpec, a, b summary) (string, float64) {
	worse := ratio(b.Median-a.Median, math.Abs(a.Median))
	if spec.Better == "higher" {
		worse = -worse
	}
	spread := math.Max(ratio(a.Q3-a.Q1, math.Abs(a.Median)), ratio(b.Q3-b.Q1, math.Abs(b.Median)))
	switch {
	case spread > spec.Bound:
		return "unresolved", worse
	case worse > spec.Bound:
		return "worse", worse
	case worse < -spec.Bound:
		return "better", worse
	}
	return "within bound", worse
}

// compareReports prints one row per workload and end-to-end metric present
// in both reports and reports whether any row is worse.
func compareReports(w io.Writer, spec benchSpec, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A %s  commit %s  seed %d  %d run(s)\n", pathA, a.Provenance.Commit, a.Provenance.Seed, a.Provenance.Runs)
	fmt.Fprintf(w, "B %s  commit %s  seed %d  %d run(s)\n", pathB, b.Provenance.Commit, b.Provenance.Seed, b.Provenance.Runs)
	fmt.Fprintf(w, "%-15s %-24s %14s %14s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "B worse", "bound", "verdict")
	anyWorse := false
	for _, wl := range spec.Workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v, worse := verdict(m, sa, sb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-15s %-24s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, v)
		}
	}
	return anyWorse, nil
}

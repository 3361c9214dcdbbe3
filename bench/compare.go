package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

func readReport(path string) (*report, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &r, nil
}

// worsening is by how much of a's median b's median is worse, given the
// metric's direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, how much
// worse the second result file is than the first, beside the metric's
// bound in BENCHMARK.json (p99_us has none: it is reported, not gated).
// It returns 1 when any metric is worse by more than its bound or a
// workload is missing from the second file.
func compareFiles(c *contract, pathA, pathB string) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareReports(c, a, b)
}

func compareReports(c *contract, a, b *report) int {
	if a.Machine != b.Machine {
		fmt.Printf("note: the two results were not taken on the same machine and commit:\n  %+v\n  %+v\n", a.Machine, b.Machine)
	}
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	beyond := 0
	fmt.Printf("%-14s %-14s %14s %14s %9s %7s\n", "workload", "metric", "a median", "b median", "worse by", "bound")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Printf("%-14s missing from the second file\n", wa.Name)
			beyond++
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			worse := worsening(d.Better, ma.Median, mb.Median)
			bound, mark := "none", ""
			if m, ok := c.endToEnd(d.Name); ok {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
				if worse > m.Bound {
					mark = "  BEYOND BOUND"
					beyond++
				}
			}
			fmt.Printf("%-14s %-14s %14.4f %14.4f %+8.1f%% %7s%s\n", wa.Name, d.Name, ma.Median, mb.Median, 100*worse, bound, mark)
		}
	}
	if beyond > 0 {
		fmt.Printf("%d metric(s) beyond their bound\n", beyond)
		return 1
	}
	return 0
}

// Package p4p's root benchmark suite regenerates every table and figure
// of the paper's evaluation: BenchmarkExperiments has one sub-benchmark
// per entry of experiments.Experiments (DESIGN.md §3 is the index), and
// each reports its experiment's headline values as custom benchmark
// metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same quantities the paper's tables and figures do, and
// -bench Experiments/F6 runs one.
//
// Workload scale is controlled with -p4p.scale (default 0.25 keeps the
// full suite in CPU-minutes; 1.0 reproduces the paper's sizes), and
// -p4p.parallel bounds the worker pool fanning each experiment's
// independent simulation cells (0 = GOMAXPROCS, 1 = serial). Reports
// are byte-identical at any parallelism, so the setting only moves
// wall-clock time.
package p4p_test

import (
	"flag"
	"sort"
	"testing"

	"p4p/internal/experiments"
)

var (
	benchScale    = flag.Float64("p4p.scale", 0.25, "experiment workload scale in (0, 1]")
	benchParallel = flag.Int("p4p.parallel", 0, "worker pool size for independent simulation cells (0 = GOMAXPROCS, 1 = serial)")
)

func benchOptions() experiments.Options {
	return experiments.Options{Scale: *benchScale, Seed: 42, Parallelism: *benchParallel}
}

// runExperiment runs e b.N times and attaches its headline numbers to
// the benchmark output, sorted for stable logs.
func runExperiment(b *testing.B, e experiments.Experiment, opt experiments.Options) {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = e.Run(opt)
	}
	keys := make([]string, 0, len(rep.Values))
	for k := range rep.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(rep.Values[k], k)
	}
}

// BenchmarkExperiments regenerates every experiment, one sub-benchmark
// per ID.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Experiments {
		b.Run(e.ID, func(b *testing.B) { runExperiment(b, e, benchOptions()) })
	}
}

// BenchmarkFigure7SwarmSize is Experiments/F7 under the name
// scripts/bench_json.sh and BENCH_sim.json record: the sweep's 21 cells
// fan across the experiment worker pool.
func BenchmarkFigure7SwarmSize(b *testing.B) {
	f7, _ := experiments.Lookup("F7")
	runExperiment(b, f7, benchOptions())
}

// BenchmarkFigure7SwarmSizeSerial runs the same sweep with the worker
// pool disabled (Parallelism: 1), regardless of -p4p.parallel. Its
// ns/op divided by BenchmarkFigure7SwarmSize's is the parallel
// harness's speedup on the host; the reported values are identical.
func BenchmarkFigure7SwarmSizeSerial(b *testing.B) {
	f7, _ := experiments.Lookup("F7")
	opt := benchOptions()
	opt.Parallelism = 1
	runExperiment(b, f7, opt)
}

// Package p4p's root benchmark suite regenerates every table and figure
// of the paper's evaluation (one benchmark per artifact; see DESIGN.md
// for the index). Each benchmark runs its experiment and reports the
// headline values as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same quantities the paper's tables and figures do.
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

// reportValues attaches an experiment's headline numbers to the
// benchmark output, sorted for stable logs.
func reportValues(b *testing.B, rep *experiments.Report) {
	b.Helper()
	keys := make([]string, 0, len(rep.Values))
	for k := range rep.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(rep.Values[k], k)
	}
}

func runExperiment(b *testing.B, fn func(experiments.Options) *experiments.Report) {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = fn(benchOptions())
	}
	reportValues(b, rep)
}

// BenchmarkTable1Networks regenerates Table 1 (network inventory).
func BenchmarkTable1Networks(b *testing.B) {
	runExperiment(b, experiments.Table1Networks)
}

// BenchmarkFigure6BitTorrentInternet regenerates Figure 6: completion
// CDFs and protected-circuit traffic for native, localized, and P4P
// BitTorrent. Paper shape: P4P completes 10-20% faster than native;
// native carries >3x, localized >=1.69x the bottleneck traffic of P4P.
func BenchmarkFigure6BitTorrentInternet(b *testing.B) {
	runExperiment(b, experiments.Figure6BitTorrentInternet)
}

// BenchmarkFigure7SwarmSize regenerates Figure 7: the swarm-size sweep
// on Abilene. Paper shape: ~20% faster completion, ~4x lower bottleneck
// utilization for P4P; localized comparable completion, higher
// utilization than P4P.
//
// The sweep's 21 cells fan across the experiment worker pool;
// BenchmarkFigure7SwarmSizeSerial runs the same cells one at a time.
func BenchmarkFigure7SwarmSize(b *testing.B) {
	runExperiment(b, experiments.Figure7SwarmSize)
}

// BenchmarkFigure7SwarmSizeSerial runs the same sweep with the worker
// pool disabled (Parallelism: 1), regardless of -p4p.parallel. Its
// ns/op divided by BenchmarkFigure7SwarmSize's is the parallel
// harness's speedup on the host; the reported values are identical.
func BenchmarkFigure7SwarmSizeSerial(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		opt := benchOptions()
		opt.Parallelism = 1
		rep = experiments.Figure7SwarmSize(opt)
	}
	reportValues(b, rep)
}

// BenchmarkFigure8ISPA regenerates Figure 8: the sweep on ISP-A,
// normalized as the paper reports it. Paper shape: ~20% faster
// completion, ~2.5x lower bottleneck utilization.
func BenchmarkFigure8ISPA(b *testing.B) {
	runExperiment(b, experiments.Figure8ISPA)
}

// BenchmarkFigure9Liveswarms regenerates Figure 9: streaming backbone
// volume. Paper shape: ~60% backbone reduction at equal throughput.
func BenchmarkFigure9Liveswarms(b *testing.B) {
	runExperiment(b, experiments.Figure9Liveswarms)
}

// BenchmarkFigure10Interdomain regenerates Figure 10: interdomain
// charging volumes. Paper shape: native ~3x, localized ~2x the P4P
// charging volume on the tight circuit.
func BenchmarkFigure10Interdomain(b *testing.B) {
	runExperiment(b, experiments.Figure10Interdomain)
}

// BenchmarkFigure11SwarmStats regenerates Figure 11: field-test swarm
// sizes over eleven days (peak in the first 3 days, then decay).
func BenchmarkFigure11SwarmStats(b *testing.B) {
	runExperiment(b, experiments.Figure11SwarmStats)
}

// BenchmarkTable2FieldTestTraffic regenerates Table 2. Paper ratios
// (native:P4P): ext<->ext 0.99, ext->ISP-B 1.53, ISP-B->ext 1.70,
// ISP-B<->ISP-B 0.15.
func BenchmarkTable2FieldTestTraffic(b *testing.B) {
	runExperiment(b, experiments.Table2FieldTestTraffic)
}

// BenchmarkTable3FieldTestInternal regenerates Table 3. Paper:
// localization 6.27% -> 57.98%.
func BenchmarkTable3FieldTestInternal(b *testing.B) {
	runExperiment(b, experiments.Table3FieldTestInternal)
}

// BenchmarkFigure12aUnitBDP regenerates Figure 12a. Paper: unit BDP
// 5.5 -> 0.89.
func BenchmarkFigure12aUnitBDP(b *testing.B) {
	runExperiment(b, experiments.Figure12aUnitBDP)
}

// BenchmarkFigure12bCompletion regenerates Figure 12b. Paper: mean
// 9460 s -> 7312 s (23% better).
func BenchmarkFigure12bCompletion(b *testing.B) {
	runExperiment(b, experiments.Figure12bCompletion)
}

// BenchmarkFigure12cFTTP regenerates Figure 12c. Paper: FTTP mean
// 4164 s -> 2481 s (native 68% higher).
func BenchmarkFigure12cFTTP(b *testing.B) {
	runExperiment(b, experiments.Figure12cFTTP)
}

// BenchmarkXMetroHops covers the Section 1 claim: 5.5 metro-hops ->
// 0.89 without hurting completion.
func BenchmarkXMetroHops(b *testing.B) {
	runExperiment(b, experiments.MetroHopsClaim)
}

// BenchmarkXSuperGradient covers Proposition 1: the decomposed
// time-averaged MLU approaches the centralized LP optimum.
func BenchmarkXSuperGradient(b *testing.B) {
	runExperiment(b, experiments.SuperGradientConvergence)
}

// BenchmarkXChargingPrediction covers Section 6.1: the hybrid window
// tracks level shifts that break the pure sliding window.
func BenchmarkXChargingPrediction(b *testing.B) {
	runExperiment(b, experiments.ChargingPrediction)
}

// BenchmarkXSwarmTail covers Section 8: ~0.72% of 34,721 swarms exceed
// one hundred leechers.
func BenchmarkXSwarmTail(b *testing.B) {
	runExperiment(b, experiments.SwarmTailClaim)
}

// BenchmarkAblationBeta sweeps eq. (6)'s efficiency factor.
func BenchmarkAblationBeta(b *testing.B) {
	runExperiment(b, experiments.AblationBeta)
}

// BenchmarkAblationConcave compares gamma=1 with the concave transform.
func BenchmarkAblationConcave(b *testing.B) {
	runExperiment(b, experiments.AblationConcave)
}

// BenchmarkAblationAggregation compares per-client and per-PoP PIDs.
func BenchmarkAblationAggregation(b *testing.B) {
	runExperiment(b, experiments.AblationAggregation)
}

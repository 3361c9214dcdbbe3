// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) plus the quantitative side claims. Experiments
// is the one list of them: each entry's Run returns a Report with the
// same rows or series the paper presents. cmd/p4pexp prints them,
// bench_test.go benchmarks each entry and TestReportsGolden pins their
// bytes. DESIGN.md §3 carries the experiment index and EXPERIMENTS.md
// the paper-vs-measured record.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"p4p/internal/metrics"
	"p4p/internal/topology"
)

// Experiment is one artifact of the paper's evaluation: its ID, the
// title its report carries, and the function that fills the report.
type Experiment struct {
	ID, Title string
	fill      func(Options, *Report)
}

// Run regenerates the artifact. It panics if opt.Scale is outside (0, 1].
func (e Experiment) Run(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport(e.ID, e.Title)
	e.fill(opt, rep)
	return rep
}

// Experiments lists every artifact in the order cmd/p4pexp prints them.
var Experiments = []Experiment{
	{"T1", "Summary of networks evaluated (Table 1)", table1Networks},
	{"F6", "BitTorrent Internet experiments (Figure 6)", figure6BitTorrentInternet},
	{"F7", "Swarm-size sweep on Abilene (Figure 7)", func(opt Options, rep *Report) { swarmSizeSweep(opt, rep, topology.Abilene(), false) }},
	{"F8", "Swarm-size sweep on ISP-A (Figure 8)", func(opt Options, rep *Report) { swarmSizeSweep(opt, rep, topology.ISPA(), true) }},
	{"F9", "Liveswarms streaming integration (Figure 9)", figure9Liveswarms},
	{"F10", "Interdomain multihoming cost control (Figure 10)", figure10Interdomain},
	{"F11", "Field-test swarm size statistics (Figure 11)", figure11SwarmStats},
	{"T2", "Overall traffic statistics of field tests (Table 2)", table2FieldTestTraffic},
	{"T3", "Internal traffic statistics of field tests (Table 3)", table3FieldTestInternal},
	{"F12a", "Average unit bandwidth-distance product (Figure 12a)", figure12aUnitBDP},
	{"F12b", "Field-test completion time, all ISP-B clients (Figure 12b)", figure12bCompletion},
	{"F12c", "Field-test completion time, FTTP clients (Figure 12c)", figure12cFTTP},
	{"X1", "Metro-hop reduction claim (Section 1)", metroHopsClaim},
	{"X2", "Dual decomposition convergence (Section 5, Proposition 1)", superGradientConvergence},
	{"X3", "Charging-volume prediction (Section 6.1)", chargingPrediction},
	{"X4", "Swarm-size tail (Section 8)", swarmTailClaim},
	{"A1", "Ablation: efficiency factor beta (eq. 6)", ablationBeta},
	{"A2", "Ablation: concave robustness transform (eq. 7)", ablationConcave},
	{"A3", "Ablation: PID aggregation granularity (Section 4)", ablationAggregation},
	{"FED", "Multi-iTracker federation: two providers, live portals", federationPair},
}

// Lookup returns the experiment whose ID is id, ignoring case.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Options tunes an experiment run.
type Options struct {
	// Scale in (0, 1] shrinks workloads proportionally (swarm sizes,
	// client counts) so tests and quick benches stay fast; 1.0
	// reproduces the paper's sizes.
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Parallelism bounds the worker pool that fans an experiment's
	// independent simulation cells (one (policy, size) pair of a sweep,
	// one policy of a comparison) across goroutines. 0 means
	// GOMAXPROCS; 1 runs strictly serially. Every cell derives its own
	// seed and owns its RNG, selector, engine, and iTracker, and
	// reports are assembled in deterministic cell order afterward, so
	// the output is byte-identical at any parallelism (see
	// TestParallelReportsMatchSerial).
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if !(o.Scale > 0 && o.Scale <= 1) { // so NaN is refused too
		panic(fmt.Sprintf("experiments: scale %v out of (0, 1]", o.Scale))
	}
	return o
}

func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// forEachCell runs fn(i) for every cell index in [0, n) on a bounded
// worker pool of o.Parallelism goroutines (GOMAXPROCS when 0). Cells
// must be independent: each writes only its own slot of a result slice
// indexed by i, and the caller assembles tables and series serially in
// cell order afterward, which keeps reports byte-identical to a serial
// run. A panic in any cell is re-raised on the caller's goroutine.
func (o Options) forEachCell(n int, fn func(i int)) {
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		idx = make(chan int)
		wg  sync.WaitGroup

		panicMu  sync.Mutex
		panicVal interface{}
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicVal == nil {
								panicVal = r
							}
							panicMu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	// Tables are printed in order.
	Tables []*metrics.Table
	// Series holds named (x, y) lines for the paper's plots.
	Series map[string][][2]float64
	// Values holds the headline numbers (used by tests and
	// EXPERIMENTS.md).
	Values map[string]float64
	// Notes document workload parameters and caveats.
	Notes []string
}

func newReport(id, title string) *Report {
	return &Report{
		ID:     id,
		Title:  title,
		Series: map[string][][2]float64{},
		Values: map[string]float64{},
	}
}

func (r *Report) addTable(t *metrics.Table) { r.Tables = append(r.Tables, t) }

func (r *Report) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// completionCDF records one arm's completion times as the paper plots
// them: the CDF at 20 points under prefix+"completion-cdf/"+arm, and its
// mean under "mean-"+prefix+"completion/"+arm. It returns the CDF.
func (r *Report) completionCDF(prefix, arm string, times []float64) *metrics.CDF {
	cdf := metrics.NewCDF(times)
	r.Series[prefix+"completion-cdf/"+arm] = cdf.Points(20)
	r.Values["mean-"+prefix+"completion/"+arm] = cdf.Mean()
	return cdf
}

// compare sets Values[key] to f(Values[a], Values[b]), where f is
// metrics.Ratio or metrics.ImprovementPercent.
func (r *Report) compare(key string, f func(a, b float64) float64, a, b string) {
	r.Values[key] = f(r.Values[a], r.Values[b])
}

// WriteTo renders the report as text.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	if len(r.Values) > 0 {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%-40s %s\n", k, metrics.FormatFloat(r.Values[k]))
		}
	}
	if len(r.Series) > 0 {
		keys := make([]string, 0, len(r.Series))
		for k := range r.Series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "series %s:", k)
			for _, pt := range r.Series[k] {
				fmt.Fprintf(&b, " (%s,%s)", metrics.FormatFloat(pt[0]), metrics.FormatFloat(pt[1]))
			}
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// meanOrNaN guards empty slices.
func meanOrNaN(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return metrics.Mean(v)
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) plus the quantitative side claims, one function
// per artifact. Each experiment returns a Report with the same rows or
// series the paper presents; cmd/p4pexp prints them and bench_test.go
// wraps each in a benchmark. DESIGN.md carries the experiment index and
// EXPERIMENTS.md the paper-vs-measured record.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/metrics"
	"p4p/internal/p2psim"
	"p4p/internal/topology"
)

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
	// PoolStats, when non-nil, records per-cell wall times and pool
	// utilization for every forEachCell run. Purely observational: it
	// never changes scheduling or report bytes.
	PoolStats *PoolStats
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Scale < 0 || o.Scale > 1 {
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
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if ps := o.PoolStats; ps != nil {
		run, start := ps.beginRun()
		defer ps.endRun(start, workers)
		inner := fn
		fn = func(i int) {
			cellStart := ps.now()
			inner(i)
			ps.recordCell(run, i, ps.now().Sub(cellStart))
		}
	}
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

// --- shared simulation scaffolding ---

// policyName labels the three compared systems as the paper does.
const (
	policyNative    = "native"
	policyLocalized = "localized"
	policyP4P       = "p4p"
)

// liveViews serves one iTracker's view for every AS: views refresh
// automatically because the iTracker caches by engine version.
type liveViews struct{ tr *itracker.Server }

// ViewFor implements apptracker.ViewProvider.
func (v liveViews) ViewFor(int) apptracker.DistanceView {
	view, err := v.tr.Distances("")
	if err != nil {
		return nil
	}
	return view
}

// protectedLinkViews is the Figure 6 iTracker: "the iTracker initially
// assigns 0 to p-distances, and increases the p-distance of the
// protected link if clients use this link." Distances are zero
// everywhere except across the protected link.
type protectedLinkViews struct {
	mu        sync.Mutex
	r         *topology.Routing
	pids      []topology.PID
	protected []topology.LinkID // typically the duplex pair of the circuit
	price     float64
	step      float64
	cached    *core.View
	version   int
}

func newProtectedLinkViews(r *topology.Routing, protected []topology.LinkID) *protectedLinkViews {
	return &protectedLinkViews{
		r:         r,
		pids:      r.Graph().AggregationPIDs(),
		protected: protected,
		step:      1.0,
	}
}

// Observe raises the protected circuit's price when it carries traffic.
func (p *protectedLinkViews) Observe(linkRateBps []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.protected {
		if linkRateBps[e] > 0 {
			p.price += p.step
			p.version++
			p.cached = nil
			return
		}
	}
}

// ViewFor implements apptracker.ViewProvider.
func (p *protectedLinkViews) ViewFor(asn int) apptracker.DistanceView {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cached != nil {
		return p.cached
	}
	v := &core.View{PIDs: append([]topology.PID(nil), p.pids...), Version: p.version}
	v.D = make([][]float64, len(p.pids))
	for a, i := range p.pids {
		v.D[a] = make([]float64, len(p.pids))
		for b, j := range p.pids {
			if a == b {
				continue
			}
			for _, e := range p.protected {
				if p.r.OnPath(e, i, j) {
					v.D[a][b] = p.price
					break
				}
			}
		}
	}
	p.cached = v
	return v
}

// delaySelector builds the delay-localized baseline: ranking peers by
// measured round-trip delay. Real RTT measurements carry last-mile and
// queueing noise far larger than metro-scale propagation differences,
// so the model adds a deterministic per-measurement jitter; without it,
// delay ranking would resolve same-PoP peers perfectly, which no
// Internet measurement can.
func delaySelector(r *topology.Routing, seed int64) apptracker.Selector {
	jrng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return &apptracker.Localized{Delay: func(a, b apptracker.Node) float64 {
		mu.Lock()
		j := jrng.Float64() * 0.015
		mu.Unlock()
		return r.PropagationDelaySeconds(a.PID, b.PID) + j
	}}
}

// spreadClients adds n leecher clients across the PIDs with joins
// spread over joinWindow seconds, plus one seed at pids[0]. Placement
// follows populationCDF: client density is highly non-uniform in
// practice ("consider the high concentration of clients in certain
// areas such as the northeastern part of US", Section 2), and that skew
// is exactly what makes pure locality-based peering concentrate traffic
// on a few backbone links.
func spreadClients(s *p2psim.Sim, pids []topology.PID, asn, n int, upBps, downBps, seedUpBps, joinWindow float64, rng *rand.Rand) {
	s.AddClient(p2psim.ClientSpec{
		PID: pids[0], ASN: asn, UpBps: seedUpBps, DownBps: seedUpBps, IsSeed: true, Class: "seed",
	})
	cum := populationCDF(s, pids)
	for i := 0; i < n; i++ {
		s.AddClient(p2psim.ClientSpec{
			PID:     pids[samplePID(cum, rng.Float64())],
			ASN:     asn,
			UpBps:   upBps,
			DownBps: downBps,
			JoinAt:  joinWindow * float64(i) / float64(n),
		})
	}
}

// samplePID maps u in [0, 1) to the index whose cumulative weight first
// reaches u of the total.
func samplePID(cum []float64, u float64) int {
	k := sort.SearchFloat64s(cum, u*cum[len(cum)-1])
	if k >= len(cum) {
		k = len(cum) - 1
	}
	return k
}

// populationCDF assigns placement weight per PID and returns the running
// sums (the last is the total). Abilene gets a metro-population profile
// with the northeastern concentration the paper calls out; other
// topologies get a Zipf profile over PIDs.
func populationCDF(s *p2psim.Sim, pids []topology.PID) []float64 {
	g := s.Graph()
	abilene := map[string]float64{
		"NewYork": 0.22, "WashingtonDC": 0.18, "Chicago": 0.12,
		"LosAngeles": 0.12, "Atlanta": 0.09, "Indianapolis": 0.05,
		"Houston": 0.06, "Denver": 0.05, "KansasCity": 0.04,
		"Seattle": 0.04, "Sunnyvale": 0.03,
	}
	cum := make([]float64, len(pids))
	total := 0.0
	for i, pid := range pids {
		w, ok := abilene[g.Node(pid).Name]
		if !ok || g.Name != "Abilene" {
			w = 1 / float64(i+1) // Zipf(1)
		}
		total += w
		cum[i] = total
	}
	return cum
}

// meanOrNaN guards empty slices.
func meanOrNaN(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return metrics.Mean(v)
}

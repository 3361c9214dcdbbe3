// Package fieldtest emulates the paper's Section 7.4 field tests: an
// eleven-day deployment (Feb 21 – Mar 2 2008) in which Pando clients
// were randomly assigned to one of two parallel swarms — native Pando
// versus P4P-integrated Pando — sharing a popular 20 MB video clip,
// with iTrackers deployed for ISP-B (and ISP-C).
//
// The production client population is obviously unavailable, so the
// emulator models it (see DESIGN.md "Substitutions"): a churn process
// with an early peak and decay (Figure 11's shape), a small ISP-B
// population embedded in a large external-Internet cloud (Table 2's
// volume asymmetry), heterogeneous access classes including FTTP
// (Figure 12c), and the metro-area structure of the synthetic ISP-B
// topology (Table 3). Traffic is computed with a quasi-static fluid
// allocation over client buckets: each hour, downloaders spread their
// demand across source buckets according to the policy's selection
// weights, sources scale grants to their upload capacity, and
// completions/departures follow from the integrated per-bucket rates.
package fieldtest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"p4p/internal/topology"
)

// Policy selects the peer-selection behaviour of the swarm.
type Policy int

const (
	// Native is stock Pando: sources chosen uniformly from the swarm,
	// so intake is proportional to source population x upload capacity.
	Native Policy = iota
	// P4P is the P4P-integrated swarm: ISP-B downloaders follow the
	// staged quotas (intra-PID, then intra-AS weighted by p-distance,
	// then external); external downloaders behave natively.
	P4P
)

func (p Policy) String() string {
	if p == Native {
		return "native"
	}
	return "p4p"
}

// Class describes one access class of ISP-B subscribers.
type Class struct {
	Name    string
	UpBps   float64
	DownBps float64
	// Frac is the share of ISP-B clients in this class.
	Frac float64
}

// accessClasses is the ISP-B access mix, a 2008-era US one: FTTP
// (fiber), cable, DSL.
var accessClasses = []Class{
	{Name: "fttp", UpBps: 5e6, DownBps: 20e6, Frac: 0.10},
	{Name: "cable", UpBps: 1e6, DownBps: 8e6, Frac: 0.35},
	{Name: "dsl", UpBps: 768e3, DownBps: 3e6, Frac: 0.55},
}

// The emulator's free constants, calibrated once against the Table 2/3
// and Figure 12 shapes (DESIGN.md §4).
const (
	// stepSec is the fluid time step (15 min).
	stepSec = 900
	// fileBytes is the clip size (20 MiB).
	fileBytes = 20 << 20
	// ispBFraction is the share of clients inside ISP-B.
	ispBFraction = 0.06
	// externalUpBps and externalDownBps describe the average external
	// client: 0.5 Mbps up, 6 Mbps down.
	externalUpBps   = 0.5e6
	externalDownBps = 6e6
	// originUpBps is the publisher's seed capacity, in the external
	// cloud: origin seeding is a bootstrap, not the workhorse.
	originUpBps = 1e6
	// lingerSec is how long a finished client stays seeding (24 h).
	lingerSec = 24 * 3600
	// intraPIDQuota and intraASQuota are the staged-selection bounds,
	// cumulative, as in Section 6.2.
	intraPIDQuota = 0.70
	intraASQuota  = 0.80
	// seederUploadFactor scales a lingering seeder's upload: finished
	// clients keep the application open but throttle seeding.
	seederUploadFactor = 0.15
	// efficiencyFactor scales nominal access capacities down to the
	// effective throughput of a background P2P client (overhead, user
	// caps, competing traffic): it stretches durations to the field
	// test's multi-hour scale without changing any comparison.
	efficiencyFactor = 0.02
)

// Config parameterizes one swarm's emulation.
type Config struct {
	// Graph and Routing must be the ISP-B topology (metro labels drive
	// the locality tables).
	Graph   *topology.Graph
	Routing *topology.Routing
	Policy  Policy
	Seed    int64

	// Days is the test duration (default 11).
	Days float64
	// TotalClients is the number of clients that join this swarm over
	// the whole window (default 60000).
	TotalClients int
}

func (c *Config) withDefaults() {
	if c.Days == 0 {
		c.Days = 11
	}
	if c.TotalClients == 0 {
		c.TotalClients = 60000
	}
}

// bucket aggregates clients with identical location and class.
type bucket struct {
	pid     topology.PID // -1 for the external cloud
	class   int          // index into accessClasses; -1 for external
	name    string
	upBps   float64
	downBps float64
	frac    float64 // arrival share of this bucket

	// dynamic state
	active   []clientState // downloading clients, FIFO by arrival
	seeding  int           // lingering seeders
	seedEnds []float64     // departure times of seeders (sorted FIFO)
	integral float64       // cumulative per-client bytes downloaded
}

type clientState struct {
	arriveT    float64
	startInteg float64
}

// Completion records one finished download.
type Completion struct {
	ClassName string
	ISPB      bool
	ArriveSec float64
	FinishSec float64
}

// SizePoint is one sample of the swarm-size series (Figure 11).
type SizePoint struct {
	TSec  float64
	Count int
}

// Result aggregates everything the field-test tables and figures need.
type Result struct {
	Policy      Policy
	SwarmSize   []SizePoint
	Completions []Completion

	// ASMatrix holds traffic volumes in bytes keyed by
	// {src,dst} ∈ {"ext","ispb"} (Table 2).
	ASMatrix map[[2]string]float64
	// SameMetroBytes and CrossMetroBytes split ISP-B internal traffic
	// (Table 3).
	SameMetroBytes  float64
	CrossMetroBytes float64
	// UnitBDP is backbone-hops per byte for ISP-B internal traffic
	// (Figure 12a).
	UnitBDP float64
	// MetroHops is metro-boundary crossings per byte for ISP-B
	// internal traffic (the Section 1 Verizon-style metric).
	MetroHops float64
}

// Run emulates one swarm.
func Run(cfg Config) *Result {
	cfg.withDefaults()
	if cfg.Graph == nil || cfg.Routing == nil {
		panic("fieldtest: Graph and Routing are required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	buckets := makeBuckets(&cfg)
	// Precompute routing hop counts and metro-crossing counts.
	pids := cfg.Graph.AggregationPIDs()
	hops := map[[2]topology.PID]float64{}
	metroHops := map[[2]topology.PID]float64{}
	for _, i := range pids {
		for _, j := range pids {
			if i == j {
				continue
			}
			path := cfg.Routing.Path(i, j)
			hops[[2]topology.PID{i, j}] = float64(len(path))
			mh := 0.0
			for _, e := range path {
				l := cfg.Graph.Link(e)
				if cfg.Graph.MetroOf(l.Src) != cfg.Graph.MetroOf(l.Dst) {
					mh++
				}
			}
			metroHops[[2]topology.PID{i, j}] = mh
		}
	}

	res := &Result{Policy: cfg.Policy, ASMatrix: map[[2]string]float64{}}

	totalSteps := int(cfg.Days * 86400 / stepSec)
	arrCarry := make([]float64, len(buckets))
	var bdpNum, metroNum, ispbBytes float64

	for step := 0; step < totalSteps; step++ {
		t := float64(step) * stepSec
		// Arrivals for this step, split across buckets.
		stepArrivals := float64(cfg.TotalClients) * arrivalShare(t, stepSec, cfg.Days)
		for bi := range buckets {
			arrCarry[bi] += stepArrivals * buckets[bi].frac
			n := int(arrCarry[bi])
			arrCarry[bi] -= float64(n)
			for k := 0; k < n; k++ {
				// Jitter arrivals uniformly within the step.
				at := t + rng.Float64()*stepSec
				buckets[bi].active = append(buckets[bi].active, clientState{arriveT: at, startInteg: buckets[bi].integral})
			}
			sort.Slice(buckets[bi].active, func(x, y int) bool {
				return buckets[bi].active[x].arriveT < buckets[bi].active[y].arriveT
			})
		}

		// Selection weights for this step reflect current candidate
		// availability: the staged quotas are upper bounds that bind
		// only when enough local candidates exist (Section 6.2).
		weights := selectionWeights(&cfg, buckets)

		// Fluid allocation: desired intake per (downloader, source)
		// bucket pair, then source-side grants.
		nB := len(buckets)
		desired := make([][]float64, nB)
		requested := make([]float64, nB)
		for d := 0; d < nB; d++ {
			desired[d] = make([]float64, nB)
			nd := float64(len(buckets[d].active))
			if nd == 0 {
				continue
			}
			demand := nd * buckets[d].downBps / 8 // bytes/sec
			for s := 0; s < nB; s++ {
				w := weights[d][s]
				if w <= 0 {
					continue
				}
				desired[d][s] = demand * w
				requested[s] += desired[d][s]
			}
		}
		granted := make([][]float64, nB)
		for d := 0; d < nB; d++ {
			granted[d] = make([]float64, nB)
		}
		for s := 0; s < nB; s++ {
			supply := supplyBps(&cfg, &buckets[s]) / 8
			if requested[s] <= 0 || supply <= 0 {
				continue
			}
			if cfg.Policy == P4P && buckets[s].pid >= 0 {
				// P4P ISP-B sources upload over the connections their
				// own staged selection formed: capacity is offered per
				// destination bucket in proportion to the source's own
				// weight row (connection reciprocity), with leftover
				// re-offered demand-proportionally — an idle upload
				// slot serves whoever is interested.
				profile := weights[s]
				profSum := 0.0
				for d := 0; d < nB; d++ {
					if desired[d][s] > 0 {
						profSum += profile[d]
					}
				}
				remaining := supply
				if profSum > 0 {
					for d := 0; d < nB; d++ {
						if desired[d][s] <= 0 {
							continue
						}
						share := supply * profile[d] / profSum
						g := math.Min(desired[d][s], share)
						granted[d][s] = g
						remaining -= g
					}
				}
				if remaining > 1e-9 {
					unmet := 0.0
					for d := 0; d < nB; d++ {
						unmet += desired[d][s] - granted[d][s]
					}
					if unmet > 0 {
						f := math.Min(1, remaining/unmet)
						for d := 0; d < nB; d++ {
							granted[d][s] += (desired[d][s] - granted[d][s]) * f
						}
					}
				}
				continue
			}
			scale := 1.0
			if requested[s] > supply {
				scale = supply / requested[s]
			}
			for d := 0; d < nB; d++ {
				granted[d][s] = desired[d][s] * scale
			}
		}

		// Account traffic and advance per-bucket integrals.
		stepProg := make([]float64, nB) // per-client bytes this step
		for d := 0; d < nB; d++ {
			nd := float64(len(buckets[d].active))
			rate := 0.0
			for s := 0; s < nB; s++ {
				g := granted[d][s]
				if g <= 0 {
					continue
				}
				rate += g
				bytes := g * stepSec
				srcKind, dstKind := asKind(&buckets[s]), asKind(&buckets[d])
				res.ASMatrix[[2]string{srcKind, dstKind}] += bytes
				if srcKind == "ispb" && dstKind == "ispb" {
					ispbBytes += bytes
					sp, dp := buckets[s].pid, buckets[d].pid
					if sp == dp || cfg.Graph.MetroOf(sp) == cfg.Graph.MetroOf(dp) {
						res.SameMetroBytes += bytes
					} else {
						res.CrossMetroBytes += bytes
					}
					if sp != dp {
						key := [2]topology.PID{sp, dp}
						bdpNum += bytes * hops[key]
						metroNum += bytes * metroHops[key]
					}
				}
			}
			if nd > 0 {
				stepProg[d] = rate / nd * stepSec
				buckets[d].integral += stepProg[d]
			}
		}

		// Clients that arrived partway through this step must not be
		// credited with progress from before their arrival.
		for bi := range buckets {
			b := &buckets[bi]
			for k := len(b.active) - 1; k >= 0; k-- {
				if b.active[k].arriveT < t {
					break
				}
				b.active[k].startInteg += (b.active[k].arriveT - t) / stepSec * stepProg[bi]
			}
		}

		// Completions and departures.
		endT := t + stepSec
		for bi := range buckets {
			b := &buckets[bi]
			for len(b.active) > 0 {
				c := b.active[0]
				got := b.integral - c.startInteg
				if got < fileBytes {
					break
				}
				// Estimate the finish instant within the step by linear
				// interpolation of this step's progress.
				finish := endT
				if prog := stepProg[bi]; prog > 0 {
					frac := 1 - (got-fileBytes)/prog
					if frac < 0 {
						frac = 0
					}
					if frac > 1 {
						frac = 1
					}
					finish = t + frac*stepSec
				}
				if finish < c.arriveT {
					finish = c.arriveT
				}
				res.Completions = append(res.Completions, Completion{
					ClassName: b.name, ISPB: b.pid >= 0,
					ArriveSec: c.arriveT, FinishSec: finish,
				})
				b.active = b.active[1:]
				b.seeding++
				b.seedEnds = append(b.seedEnds, finish+lingerSec)
			}
			for b.seeding > 0 && b.seedEnds[0] <= endT {
				b.seeding--
				b.seedEnds = b.seedEnds[1:]
			}
		}

		// Swarm size sample: everyone currently in the swarm.
		count := 0
		for bi := range buckets {
			count += len(buckets[bi].active) + buckets[bi].seeding
		}
		res.SwarmSize = append(res.SwarmSize, SizePoint{TSec: endT, Count: count})
	}

	if ispbBytes > 0 {
		res.UnitBDP = bdpNum / ispbBytes
		res.MetroHops = metroNum / ispbBytes
	}
	return res
}

// RunMany emulates several independent swarms and returns their results
// in input order. Swarms share no state, so the caller may supply a
// parallel dispatcher (typically experiments.Options' bounded worker
// pool): forEach must invoke fn(i) exactly once for every i in [0, n),
// in any order and from any goroutine. A nil forEach runs serially.
// Results are identical either way — each swarm owns its rng.
func RunMany(cfgs []Config, forEach func(n int, fn func(int))) []*Result {
	results := make([]*Result, len(cfgs))
	if forEach == nil {
		for i := range cfgs {
			results[i] = Run(cfgs[i])
		}
		return results
	}
	forEach(len(cfgs), func(i int) { results[i] = Run(cfgs[i]) })
	return results
}

// asKind maps a bucket to the Table 2 grouping.
func asKind(b *bucket) string {
	if b.pid < 0 {
		return "ext"
	}
	return "ispb"
}

// supplyBps is a bucket's total upload capacity: active downloaders
// upload while downloading (BitTorrent-style); lingering seeders keep
// uploading at a throttled rate; the external cloud also hosts the
// origin server.
func supplyBps(cfg *Config, b *bucket) float64 {
	s := (float64(len(b.active)) + seederUploadFactor*float64(b.seeding)) * b.upBps
	if b.pid < 0 {
		s += originUpBps
	}
	return s
}

// arrivalShare is the fraction of all clients arriving in the step of
// length stepSec starting at t: a surge over the first three days, then
// decay — the shape of Figure 11.
func arrivalShare(t, stepSec, days float64) float64 {
	// Piecewise intensity lambda(day): ramp up day 0-0.5, plateau to day
	// 3, exponential decay after; normalized over the window.
	day := t / 86400
	lambda := func(d float64) float64 {
		switch {
		case d < 0.5:
			return 2 * d // ramp
		case d < 3:
			return 1.0
		default:
			return math.Exp(-(d - 3) / 2.5)
		}
	}
	// Normalize by the integral computed numerically (cheap; the window
	// is short).
	const dt = 1.0 / 24
	total := 0.0
	for d := 0.0; d < days; d += dt {
		total += lambda(d) * dt
	}
	return lambda(day) * (stepSec / 86400) / total
}

// makeBuckets lays out the population: one bucket per (PID, class) in
// ISP-B plus a single external-cloud bucket.
func makeBuckets(cfg *Config) []bucket {
	var out []bucket
	f := efficiencyFactor
	pids := cfg.Graph.AggregationPIDs()
	for _, pid := range pids {
		for ci, cl := range accessClasses {
			out = append(out, bucket{
				pid: pid, class: ci,
				name:    cl.Name,
				upBps:   cl.UpBps * f,
				downBps: cl.DownBps * f,
				frac:    ispBFraction / float64(len(pids)) * cl.Frac,
			})
		}
	}
	out = append(out, bucket{
		pid: -1, class: -1, name: "ext",
		upBps: externalUpBps * f, downBps: externalDownBps * f,
		frac: 1 - ispBFraction,
	})
	return out
}

// selectionWeights builds the downloader->source weight matrix by
// policy for the current populations. Rows are normalized to 1 where
// any source weight exists. The staged quotas are treated as upper
// bounds: a stage's share is capped by candidate availability relative
// to a nominal neighbour-set size, mirroring "many PIDs may not have a
// large number of clients. Thus, Upper-Bound-IntraPID mainly serves as
// an upper bound."
func selectionWeights(cfg *Config, buckets []bucket) [][]float64 {
	const neighborTarget = 20.0
	nB := len(buckets)
	w := make([][]float64, nB)
	// Population-capacity mass of each source bucket: "uniform random
	// peer" intake is proportional to population x upload capacity.
	mass := make([]float64, nB)
	for s := range buckets {
		mass[s] = supplyBps(cfg, &buckets[s]) + float64(len(buckets[s].active)+buckets[s].seeding)
	}
	for d := range buckets {
		w[d] = make([]float64, nB)
		if cfg.Policy == Native || buckets[d].pid < 0 {
			// Native behaviour (and external clients under P4P): mass-
			// proportional over the whole swarm.
			copy(w[d], mass)
			normalize(w[d])
			continue
		}
		// P4P staged quotas for ISP-B downloaders, capped by candidate
		// availability. Within the ISP the Pando integration runs the
		// upload/download bandwidth-matching optimization (eq. 5), which
		// pairs high-download clients with high-upload sources; the
		// affinity factor below is its bucket-level effect.
		affinity := func(s int) float64 {
			a := buckets[s].upBps / buckets[d].downBps
			if a > 1 {
				a = 1
			}
			return a
		}
		var nSamePID, nSameAS float64
		samePIDMass, sameASMass := 0.0, 0.0
		for s := range buckets {
			n := float64(len(buckets[s].active) + buckets[s].seeding)
			if buckets[s].pid == buckets[d].pid {
				nSamePID += n
				samePIDMass += mass[s] * affinity(s)
			} else if buckets[s].pid >= 0 {
				nSameAS += n
				sameASMass += mass[s] * affinity(s) / pDist(cfg, buckets[d].pid, buckets[s].pid)
			}
		}
		intra := math.Min(intraPIDQuota, nSamePID/neighborTarget)
		inAS := math.Min(intraASQuota-intra, math.Min(intraASQuota, nSameAS/neighborTarget))
		if samePIDMass <= 0 {
			intra = 0
		}
		if sameASMass <= 0 {
			inAS = 0
		}
		ext := 1 - intra - inAS
		for s := range buckets {
			switch {
			case buckets[s].pid == buckets[d].pid:
				if samePIDMass > 0 {
					w[d][s] = intra * mass[s] * affinity(s) / samePIDMass
				}
			case buckets[s].pid >= 0:
				if sameASMass > 0 {
					w[d][s] = inAS * (mass[s] * affinity(s) / pDist(cfg, buckets[d].pid, buckets[s].pid)) / sameASMass
				}
			default:
				w[d][s] = ext
			}
		}
		normalize(w[d])
	}
	return w
}

// pDist is the static p-distance proxy used for weighting: backbone hop
// count (never zero).
func pDist(cfg *Config, i, j topology.PID) float64 {
	h := cfg.Routing.HopCount(i, j)
	if h <= 0 {
		return 1
	}
	return float64(h)
}

func normalize(v []float64) {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if sum == 0 {
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

// MeanCompletionSec averages completion durations, optionally filtered
// to one class and/or ISP-B membership.
func (r *Result) MeanCompletionSec(class string, ispbOnly bool) float64 {
	sum, n := 0.0, 0
	for _, c := range r.Completions {
		if class != "" && c.ClassName != class {
			continue
		}
		if ispbOnly && !c.ISPB {
			continue
		}
		sum += c.FinishSec - c.ArriveSec
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// CompletionDurations lists completion durations matching the filter,
// sorted ascending.
func (r *Result) CompletionDurations(class string, ispbOnly bool) []float64 {
	var out []float64
	for _, c := range r.Completions {
		if class != "" && c.ClassName != class {
			continue
		}
		if ispbOnly && !c.ISPB {
			continue
		}
		out = append(out, c.FinishSec-c.ArriveSec)
	}
	sort.Float64s(out)
	return out
}

// LocalizationPercent is Table 3's "% of Localization": the same-metro
// share of ISP-B internal traffic.
func (r *Result) LocalizationPercent() float64 {
	total := r.SameMetroBytes + r.CrossMetroBytes
	if total == 0 {
		return 0
	}
	return 100 * r.SameMetroBytes / total
}

// PeakSwarmSize returns the maximum swarm size and its time.
func (r *Result) PeakSwarmSize() (int, float64) {
	best, bestT := 0, 0.0
	for _, p := range r.SwarmSize {
		if p.Count > best {
			best, bestT = p.Count, p.TSec
		}
	}
	return best, bestT
}

// String summarizes the result.
func (r *Result) String() string {
	peak, _ := r.PeakSwarmSize()
	return fmt.Sprintf("fieldtest[%s]: %d completions, peak swarm %d, localization %.1f%%, unitBDP %.2f",
		r.Policy, len(r.Completions), peak, r.LocalizationPercent(), r.UnitBDP)
}

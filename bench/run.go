package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"p4p/internal/topology"
)

// Workload names; later issues cite them.
const (
	wlSteady = "portal-steady"
	wlChurn  = "portal-churn"
	wlFed    = "select-fed"
	wlSwarm  = "swarm-p4p"
)

var workloadOrder = []string{wlSteady, wlChurn, wlFed, wlSwarm}

// metricDef names one end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// The seven end-to-end metrics, in report order. BENCHMARK.json bounds
// six of them; p99_us is reported beside them without a bound, because
// on this box it measures the hypervisor (see README.md, "Steadiness").
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
	{"fresh_p50_us", "us", "lower"},
	{"swarm_s", "s", "lower"},
	{"setup_s", "s", "lower"},
}

func buildSite(name string, seed int64, rec *recorder) (site, error) {
	switch name {
	case wlSteady:
		return newSteadySite(seed, rec)
	case wlChurn:
		return newChurnSite(seed, rec)
	case wlFed:
		return newFedSite(seed, rec)
	}
	return nil, fmt.Errorf("no serving workload %q", name)
}

// runShape is how long and how large one run is.
type runShape struct {
	trials       int
	windows      int           // closed/open window pairs per trial
	window       time.Duration // each closed and each open window
	warmOps      int           // per caller
	openRate     float64       // open-loop slots per second
	tailSamples  int           // fewest open samples a trial's p99 accepts
	freshSamples int
	leechers     int // swarm-p4p's swarms
	warmLeechers int
	refLeechers  int
	refSwarms    int
}

func shapeFor(name string, seconds float64, trials int, smoke bool) runShape {
	sh := runShape{
		trials:       servingTrials,
		warmOps:      frozenParams[name].warmOps,
		openRate:     frozenParams[name].openRate,
		tailSamples:  1000,
		freshSamples: steadyFreshSamples,
		leechers:     swarmLeechers,
		warmLeechers: warmLeechers,
		refLeechers:  refLeechers,
		refSwarms:    refSwarms,
	}
	if name == wlSwarm {
		sh.trials = int(seconds/swarmTrialSeconds + 0.5)
		if sh.trials < 1 {
			sh.trials = 1
		}
	}
	if trials > 0 {
		sh.trials = trials
	}
	sh.windows = windowsPerTrial
	sh.window = time.Duration(seconds / float64(2*sh.trials*sh.windows) * float64(time.Second))
	if smoke {
		sh.trials, sh.windows, sh.window = 1, 1, 500*time.Millisecond
		// A smoke run may be a race-detector build several times slower:
		// offer a quarter of the frozen rate and accept any sample count.
		sh.warmOps, sh.openRate, sh.tailSamples = sh.warmOps/10, sh.openRate/4, 0
		sh.freshSamples = 10
		sh.leechers, sh.warmLeechers, sh.refLeechers, sh.refSwarms = 200, 100, 100, 1
	}
	return sh
}

// trial is one trial's value for each end-to-end metric, with the
// counts and checks that go with it.
type trial struct {
	// samples holds the trial's values per metric: one per window or
	// block for the metrics those can estimate, one per trial for the
	// rest. The key rawPrefix+metric holds the same values as measured.
	samples   map[string][]float64
	attempted int
	failed    int
	// Generator hygiene: sender lateness and the slowest op.
	lateP99, endLate, maxLat time.Duration
	openSamples              int
	checks                   map[string]float64
	problems                 []string
}

func newTrial() *trial {
	return &trial{samples: map[string][]float64{}, checks: map[string]float64{}}
}

func (t *trial) problemf(format string, args ...interface{}) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// tailBlock is the fewest samples a 99th percentile is taken from: it
// leaves ten beyond it.
const tailBlock = 1000

// tailValues cuts the trial's latency samples, in the order they were
// taken, into equal blocks of at least tailBlock and records each
// block's 99th percentile. The run reports the median block, so one
// frozen half-second cannot set it. p99_us is not scaled by the box's
// speed: see calib.go.
func (t *trial) tailValues(lat []time.Duration) {
	t.openSamples = len(lat)
	blocks := len(lat) / tailBlock
	if blocks < 1 {
		blocks = 1
	}
	for b := 0; b < blocks; b++ {
		block := append([]time.Duration(nil), lat[b*len(lat)/blocks:(b+1)*len(lat)/blocks]...)
		sortDurations(block)
		p99 := micros(percentile(block, 0.99))
		t.timed("p99_us", p99, 1)
		if n := len(block); n > 0 && block[n-1] > t.maxLat {
			t.maxLat = block[n-1]
		}
	}
}

// rawPrefix marks the as-measured twin of a metric stated at the
// reference box's speed.
const rawPrefix = "raw:"

// timed records a time-like value: as measured, and at the reference
// box's speed (a time shrinks on a slow box's slow clock).
func (t *trial) timed(metric string, v, speed float64) {
	t.samples[rawPrefix+metric] = append(t.samples[rawPrefix+metric], v)
	t.samples[metric] = append(t.samples[metric], v*speed)
}

// rate is timed for a rate.
func (t *trial) rate(metric string, v, speed float64) {
	t.samples[rawPrefix+metric] = append(t.samples[rawPrefix+metric], v)
	t.samples[metric] = append(t.samples[metric], v/speed)
}

// scaled returns d with every duration multiplied by speed.
func scaled(d []time.Duration, speed float64) []time.Duration {
	out := make([]time.Duration, len(d))
	for i, v := range d {
		out[i] = time.Duration(float64(v) * speed)
	}
	return out
}

func medianDuration(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return percentile(s, 0.50)
}

// referenceSwarms times n small P4P swarms and returns the median wall
// time: swarm_s on the serving workloads.
func referenceSwarms(seed int64, leechers, n int) (time.Duration, error) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	walls := make([]time.Duration, n)
	for k := range walls {
		o := runSwarm(g, r, leechers, seed+int64(k), &swarmHooks{}, nil)
		if o.completed != o.leechers {
			return 0, fmt.Errorf("reference swarm: %d of %d leechers completed", o.completed, o.leechers)
		}
		walls[k] = o.wall
	}
	return medianDuration(walls), nil
}

// servingTrial builds the site afresh, warms it, then alternates closed
// and open windows on it, and checks the workload's mechanism on the
// counters.
func servingTrial(name string, seed int64, sh runShape, cal *calibData) (*trial, error) {
	t := newTrial()
	mark := cal.calibrate()
	t0 := time.Now()
	s, err := buildSite(name, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: build site: %w", name, err)
	}
	defer s.close()
	gen := &generator{site: s, clk: wallClock{}}
	t.failed += gen.warm(sh.warmOps)
	t.attempted += callers * sh.warmOps
	setup := time.Since(t0).Seconds()
	// Every interval is bracketed by two runs of the calibration kernel;
	// their mean is the box's speed over it.
	next := cal.calibrate()
	t.timed("setup_s", setup, speedOf(mark, next))
	mark = next

	before := s.counters()
	var lat, late, fresh, freshNorm, endLates []time.Duration
	for w := 0; w < sh.windows; w++ {
		closed := gen.closed(sh.window)
		if err := s.quiesce(); err != nil {
			t.problemf("after closed window %d: %v", w, err)
		}
		next = cal.calibrate()
		closedSpeed := speedOf(mark, next)
		mark = next
		open := gen.open(sh.window, sh.openRate)
		if err := s.quiesce(); err != nil {
			t.problemf("after open window %d: %v", w, err)
		}
		next = cal.calibrate()
		openSpeed := speedOf(mark, next)
		mark = next
		t.samples["speed"] = append(t.samples["speed"], closedSpeed, openSpeed)
		t.attempted += closed.attempted() + open.attempted
		t.failed += closed.failed + open.failed
		if closed.ops == 0 || len(open.lat) == 0 {
			return nil, fmt.Errorf("%s: no op completed in window %d", name, w)
		}
		t.rate("ops_per_s", float64(closed.ops)/closed.wall.Seconds(), closedSpeed)
		t.timed("cpu_us_per_op", micros(closed.cpu)/float64(closed.ops), closedSpeed)
		t.timed("p50_us", micros(medianDuration(open.lat)), openSpeed)
		lat = append(lat, open.lat...)
		late = append(late, open.late...)
		fresh = append(fresh, closed.fresh...)
		freshNorm = append(freshNorm, scaled(closed.fresh, closedSpeed)...)
		endLates = append(endLates, open.endLate)
	}
	after := s.counters()
	delta := func(k string) float64 { return float64(after[k] - before[k]) }

	t.tailValues(lat)
	sortDurations(late)
	t.lateP99 = percentile(late, 0.99)
	if t.openSamples < sh.tailSamples {
		t.problemf("open windows hold %d samples, p99 needs %d", t.openSamples, sh.tailSamples)
	}
	// One window can end inside a stall; a rate the site cannot sustain
	// ends most of them late.
	if t.endLate = medianDuration(endLates); t.endLate > time.Millisecond {
		t.problemf("open windows ended %v late: the backlog was growing", t.endLate)
	}

	switch name {
	case wlSteady:
		t.checks["recomputes_in_timed_phases"] = delta("recomputes")
		if delta("recomputes") != 0 {
			t.problemf("view recomputed %v times during the timed windows", delta("recomputes"))
		}
		if fresh, err = s.(*steadySite).freshness(sh.freshSamples); err != nil {
			t.problemf("freshness: %v", err)
		}
		next = cal.calibrate()
		freshNorm = scaled(fresh, speedOf(mark, next))
		mark = next
	case wlChurn:
		t.checks["recomputes_per_update"] = delta("recomputes") / delta("updates")
		if delta("recomputes") < 0.5*delta("updates") {
			t.problemf("%v recomputes for %v updates", delta("recomputes"), delta("updates"))
		}
	case wlFed:
		shards := float64(len(s.(*fedSite).shards))
		t.checks["refresh_ops"] = delta("refresh_ops")
		t.checks["backend_fetches_per_refresh_op"] = delta("backend_fetches") / delta("refresh_ops")
		t.checks["coalesced_serves"] = delta("coalesces")
		if delta("backend_fetches") != shards*delta("refresh_ops") || delta("view_refreshes") != delta("refresh_ops") {
			t.problemf("%v refresh ops, %v appTracker refreshes, %v backend fetches: backends served outside refresh ops",
				delta("refresh_ops"), delta("view_refreshes"), delta("backend_fetches"))
		}
	}
	if r := delta("responses"); r > 0 {
		t.checks["status200_share"] = delta("full200") / r
	}
	if len(fresh) == 0 {
		return nil, fmt.Errorf("%s: no freshness sample", name)
	}
	t.samples[rawPrefix+"fresh_p50_us"] = []float64{micros(medianDuration(fresh))}
	t.samples["fresh_p50_us"] = []float64{micros(medianDuration(freshNorm))}

	ref, err := referenceSwarms(seed, sh.refLeechers, sh.refSwarms)
	if err != nil {
		return nil, err
	}
	t.timed("swarm_s", ref.Seconds(), speedOf(mark, cal.calibrate()))
	return t, nil
}

// swarmTrial runs the warm-up swarm, then the trial's three swarms. An
// op is one peer-selection call of the simulator.
func swarmTrial(seed int64, sh runShape, cal *calibData) (*trial, string, error) {
	t := newTrial()
	mark := cal.calibrate()
	t0 := time.Now()
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	if o := runSwarm(g, r, sh.warmLeechers, seed, &swarmHooks{}, nil); o.completed != o.leechers {
		return nil, "", errors.New("swarm-p4p: warm-up swarm did not complete")
	}
	setup := time.Since(t0).Seconds()
	around := []calibration{cal.calibrate()}
	t.timed("setup_s", setup, speedOf(mark, around[0]))

	hooks := &swarmHooks{}
	var wall, cpu time.Duration
	prints := ""
	for k := 0; k < swarmsPerTrial; k++ {
		cpu0 := processCPU()
		o := runSwarm(g, r, sh.leechers, seed+int64(k), hooks, nil)
		cpu += processCPU() - cpu0
		if o.completed != o.leechers {
			t.problemf("swarm %d: %d of %d leechers completed", k, o.completed, o.leechers)
		}
		wall += o.wall
		prints += o.fingerprint() + ";"
		around = append(around, cal.calibrate())
	}
	// One speed for the trial: the kernel ran before, between and after
	// its three swarms.
	speed := speedOf(around...)
	t.samples["speed"] = []float64{speed}
	ops := len(hooks.selectLat)
	if ops == 0 || len(hooks.fresh) == 0 {
		return nil, "", errors.New("swarm-p4p: the simulator made no selection or no price update")
	}
	t.attempted, t.failed = ops, hooks.oracleFailed
	t.timed("swarm_s", wall.Seconds(), speed)
	t.rate("ops_per_s", float64(ops)/wall.Seconds(), speed)
	t.timed("cpu_us_per_op", micros(cpu)/float64(ops), speed)
	t.timed("p50_us", micros(medianDuration(hooks.selectLat)), speed)
	t.tailValues(hooks.selectLat)
	t.timed("fresh_p50_us", micros(medianDuration(hooks.fresh)), speed)
	t.checks["select_calls"] = float64(ops)
	t.checks["updates"] = float64(hooks.updateCalls)
	return t, prints, nil
}

// metricResult is one end-to-end metric of one workload across trials.
type metricResult struct {
	Unit   string `json:"unit"`
	Better string `json:"better"`
	summary
}

// workloadResult is everything one untraced run of one workload yields.
type workloadResult struct {
	Name      string                  `json:"name"`
	Trials    int                     `json:"trials"`
	Windows   int                     `json:"windows_per_trial"`
	WindowS   float64                 `json:"window_seconds"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
	// Raw holds the same metrics as measured, before they were stated
	// at the reference box's speed; Speed is that speed (1 = reference).
	Raw      map[string]metricResult `json:"raw"`
	Speed    summary                 `json:"speed"`
	Checks   map[string]float64      `json:"checks"`
	Gen      map[string]float64      `json:"generator,omitempty"`
	Problems []string                `json:"problems,omitempty"`
}

// runWorkload runs every trial of one workload with tracing off and
// states each metric as the median across trials.
func runWorkload(name string, seed int64, sh runShape) (*workloadResult, error) {
	res := &workloadResult{Name: name, Trials: sh.trials, Windows: sh.windows, WindowS: sh.window.Seconds(),
		Metrics: map[string]metricResult{}, Raw: map[string]metricResult{}, Checks: map[string]float64{}}
	cal := newCalibData()
	per := map[string][]float64{}
	checks := map[string][]float64{}
	var lateP99, endLate, maxLat []float64
	firstPrint := ""
	for k := 0; k < sh.trials; k++ {
		var t *trial
		var err error
		if name == wlSwarm {
			var prints string
			if t, prints, err = swarmTrial(seed, sh, cal); err == nil {
				// Trials of one seed repeat the same three swarms, so
				// their results must be identical.
				if k == 0 {
					firstPrint = prints
				} else if prints != firstPrint {
					t.problemf("trial %d is not the repeat of trial 0: %s against %s", k, prints, firstPrint)
				}
			}
		} else {
			t, err = servingTrial(name, seed, sh, cal)
		}
		if err != nil {
			return nil, err
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Problems = append(res.Problems, t.problems...)
		for m, vs := range t.samples {
			per[m] = append(per[m], vs...)
		}
		for c, v := range t.checks {
			checks[c] = append(checks[c], v)
		}
		lateP99 = append(lateP99, micros(t.lateP99))
		endLate = append(endLate, micros(t.endLate))
		maxLat = append(maxLat, micros(t.maxLat))
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricResult{Unit: d.Unit, Better: d.Better, summary: summarize(per[d.Name])}
		res.Raw[d.Name] = metricResult{Unit: d.Unit, Better: d.Better, summary: summarize(per[rawPrefix+d.Name])}
	}
	res.Speed = summarize(per["speed"])
	for c, vs := range checks {
		res.Checks[c] = summarize(vs).Median
	}
	if name != wlSwarm {
		sort.Float64s(maxLat)
		res.Gen = map[string]float64{
			"late_p99_us": summarize(lateP99).Median,
			"end_late_us": summarize(endLate).Median,
			"max_us":      maxLat[len(maxLat)-1],
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

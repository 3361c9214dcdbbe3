package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"p4p/internal/topology"
)

// traceDir is where the span files go, relative to the checkout root.
const traceDir = "bench/out"

// tracedResult is what a traced run yields: every per-layer metric,
// from the probes and from one traced closed-loop pass per workload.
type tracedResult struct {
	Named     string             `json:"named_workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Sources names, for each metric a pass measured, the workload
	// whose pass the value was read from.
	Sources map[string]string `json:"sources"`
	// Accounted is, per workload, the share of the root spans' time
	// that the self times of their descendants add up to.
	Accounted  map[string]float64 `json:"accounted_share"`
	TraceFiles []string           `json:"trace_files"`
	Problems   []string           `json:"problems,omitempty"`
}

// pass is one workload's part of a traced run.
type pass struct {
	metrics   map[string]float64
	accounted float64
	attempted int
	failed    int
	problems  []string
	file      string
}

// servingPass runs one workload three times over: an untraced closed
// window (the base for the overhead), an untraced open window (sender
// hygiene), and a traced closed window (the spans).
func servingPass(name string, seed int64, window time.Duration, warm int, rate float64, outDir string) (*pass, error) {
	p := &pass{metrics: map[string]float64{}}

	plain, err := buildSite(name, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: build site: %w", name, err)
	}
	gen := &generator{site: plain, clk: wallClock{}}
	p.failed += gen.warm(warm)
	base := gen.closed(window)
	open := gen.open(window, rate)
	plain.close()
	p.attempted += callers*warm + base.attempted() + open.attempted
	p.failed += base.failed + open.failed
	sortDurations(open.late)
	sortDurations(open.lat)
	p.metrics["gen.late_p99_us"] = micros(percentile(open.late, 0.99))
	p.metrics["gen.p99_us"] = micros(percentile(open.lat, 0.99))
	p.metrics["gen.max_us"] = micros(percentile(open.lat, 1))

	rec := newRecorder()
	s, err := buildSite(name, seed, rec)
	if err != nil {
		return nil, fmt.Errorf("%s: build traced site: %w", name, err)
	}
	defer s.close()
	gen = &generator{site: s, rec: rec, clk: wallClock{}}
	p.failed += gen.warm(warm)
	// Spans from set-up and warm-up are not part of the pass.
	rec.reset()
	before := s.counters()
	traced := gen.closed(window)
	if err := s.quiesce(); err != nil {
		p.problems = append(p.problems, fmt.Sprintf("%s: after the traced window: %v", name, err))
	}
	after := s.counters()
	p.attempted += callers*warm + traced.attempted()
	p.failed += traced.failed
	if base.ops == 0 || traced.ops == 0 {
		return nil, fmt.Errorf("%s: no op completed in a traced-run window", name)
	}
	baseRate := float64(base.ops) / base.wall.Seconds()
	tracedRate := float64(traced.ops) / traced.wall.Seconds()
	p.metrics["gen.trace_overhead_pct"] = 100 * (baseRate - tracedRate) / baseRate

	spans := rec.snapshot()
	sum := summarizeTrace(spans, spanGenOp)
	p.accounted = sum.accounted
	if p.file, err = writeTraceFile(outDir, name, seed, spans); err != nil {
		return nil, fmt.Errorf("write trace file: %w", err)
	}
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	lay := sum.layers
	set := func(metric, span string, v float64) {
		if lay[span].Count > 0 {
			p.metrics[metric] = v
		}
	}
	set("portal.serve_us", spanSrvPortal, lay[spanSrvPortal].meanSelfUs())
	set("wire.self_us", spanWire, lay[spanWire].meanSelfUs())
	set("itracker.update_us", spanUpdate, lay[spanUpdate].meanDurUs())
	set("federation.serve_us", spanSrvRouter, lay[spanSrvRouter].meanSelfUs())
	set("apptracker.select_self_us", spanSelect, lay[spanSelect].meanSelfUs())
	set("apptracker.handler_self_us", spanSrvSelect, lay[spanSrvSelect].meanSelfUs())
	set("apptracker.refresh_us", spanFetch, lay[spanFetch].meanDurUs())
	if n := lay[spanSrvPortal].Count; n > 0 {
		full := 0
		for _, sp := range spans {
			if sp.Name == spanSrvPortal && sp.Attr == "GET 200" {
				full++
			}
		}
		p.metrics["portal.status200_share"] = float64(full) / float64(n)
	}
	switch name {
	case wlChurn:
		p.metrics["itracker.recomputes_per_update"] = delta("recomputes") / delta("updates")
	case wlFed:
		p.metrics["federation.shard_fetches_per_refresh"] = delta("backend_fetches") / delta("view_refreshes")
		p.metrics["apptracker.coalesced_serves"] = delta("coalesces")
	}
	return p, nil
}

// swarmPass runs one swarm of the trial's three, three times over:
// untraced (the base, and the allocation counts), traced, and under
// the native Random selector.
func swarmPass(seed int64, leechers int, outDir string) (*pass, error) {
	p := &pass{metrics: map[string]float64{}}
	g := topology.Abilene()
	r := topology.ComputeRouting(g)

	var m0, m1 runtime.MemStats
	plain := &swarmHooks{sampleHeap: true}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base := runSwarm(g, r, leechers, seed, plain, nil)
	runtime.ReadMemStats(&m1)
	p.metrics["p2psim.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	p.metrics["p2psim.mallocs_k"] = float64(m1.Mallocs-m0.Mallocs) / 1e3
	p.metrics["p2psim.heap_peak_mb"] = float64(plain.heapPeak) / (1 << 20)

	rec := newRecorder()
	hooks := &swarmHooks{stack: &callStack{rec: rec}, timeViews: true}
	traced := runSwarm(g, r, leechers, seed, hooks, rec)
	native := runSwarm(g, r, leechers, seed, nil, nil)
	for _, o := range []swarmOutcome{base, traced, native} {
		if o.completed != o.leechers {
			return nil, errors.New("swarm-p4p: a traced-run swarm did not complete")
		}
	}
	if base.fingerprint() != traced.fingerprint() {
		p.problems = append(p.problems, "swarm-p4p: the traced swarm is not the repeat of the untraced one")
	}
	p.attempted = len(plain.selectLat) + len(hooks.selectLat)
	p.failed = plain.oracleFailed + hooks.oracleFailed

	spans := rec.snapshot()
	sum := summarizeTrace(spans, spanSimRun)
	p.accounted = 1 // the root's own time is a layer here: the event engine
	var err error
	if p.file, err = writeTraceFile(outDir, wlSwarm, seed, spans); err != nil {
		return nil, fmt.Errorf("write trace file: %w", err)
	}
	lay := sum.layers
	p.metrics["p2psim.select_s"] = float64(lay[spanSelect].SelfNs) / 1e9
	p.metrics["p2psim.select_calls"] = float64(lay[spanSelect].Count)
	p.metrics["p2psim.view_s"] = float64(lay[spanViewFor].DurNs) / 1e9
	p.metrics["p2psim.update_s"] = float64(lay[spanUpdate].DurNs) / 1e9
	p.metrics["p2psim.update_calls"] = float64(lay[spanUpdate].Count)
	p.metrics["p2psim.engine_self_s"] = float64(lay[spanSimRun].SelfNs) / 1e9
	p.metrics["p2psim.native_swarm_s"] = native.wall.Seconds()
	p.metrics["gen.trace_overhead_pct"] = 100 * (traced.wall.Seconds() - base.wall.Seconds()) / base.wall.Seconds()
	sortDurations(plain.selectLat)
	p.metrics["gen.p99_us"] = micros(percentile(plain.selectLat, 0.99))
	p.metrics["gen.max_us"] = micros(percentile(plain.selectLat, 1))
	return p, nil
}

// runTraced runs the probes and one traced pass per workload. A metric
// two workloads' passes both measure (portal.serve_us, wire.self_us,
// the gen.* hygiene...) is read from the named workload's pass when
// that pass has it, and otherwise from the first workload, in the
// benchmark's order, whose pass does.
func runTraced(named string, seed int64, seconds float64, smoke bool, outDir string) (*tracedResult, error) {
	res := &tracedResult{Named: named, Metrics: map[string]float64{}, Sources: map[string]string{}, Accounted: map[string]float64{}}
	probes, err := runProbes(seed, smoke)
	if err != nil {
		return nil, err
	}
	for k, v := range probes.metrics {
		res.Metrics[k] = v
	}
	res.Problems = append(res.Problems, probes.problems...)
	// Per-layer values are reported as measured; calib.speed says how
	// fast the box was while they were taken (see calib.go).
	cal := newCalibData()
	around := []calibration{cal.calibrate()}

	// Twelve windows share the run: three per serving workload, and the
	// swarm's three runs count as three.
	window := time.Duration(seconds / 12 * float64(time.Second))
	leechers := swarmLeechers
	if smoke {
		window, leechers = 300*time.Millisecond, 200
	}
	passes := map[string]*pass{}
	for _, name := range workloadOrder {
		var p *pass
		if name == wlSwarm {
			p, err = swarmPass(seed, leechers, outDir)
		} else {
			warm, rate := frozenParams[name].warmOps/2, frozenParams[name].openRate
			if smoke {
				warm, rate = warm/10, rate/4
			}
			p, err = servingPass(name, seed, window, warm, rate, outDir)
		}
		if err != nil {
			return nil, err
		}
		around = append(around, cal.calibrate())
		passes[name] = p
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.Problems = append(res.Problems, p.problems...)
		res.Accounted[name] = p.accounted
		res.TraceFiles = append(res.TraceFiles, p.file)
		if p.accounted < 0.95 {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: descendants account for %.1f%% of the root spans, want 95%%", name, 100*p.accounted))
		}
	}
	for _, name := range append([]string{named}, workloadOrder...) {
		for k, v := range passes[name].metrics {
			if _, have := res.Sources[k]; !have {
				res.Metrics[k] = v
				res.Sources[k] = name
			}
		}
	}
	res.Metrics["calib.speed"] = speedOf(around...)
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

func printLayers(w io.Writer, c *contract, t *tracedResult) {
	fmt.Fprintf(w, "traced run, named workload %s: %d ops attempted, %d failed\n", t.Named, t.Attempted, t.Failed)
	for _, m := range c.PerLayer {
		v, ok := t.Metrics[m.Name]
		src := t.Sources[m.Name]
		if src == "" {
			src = "probe"
		}
		if !ok {
			src = "MISSING"
		}
		fmt.Fprintf(w, "  %-38s %-6s %14.4f  %s\n", m.Name, m.Unit, v, src)
	}
	names := make([]string, 0, len(t.Accounted))
	for n := range t.Accounted {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  accounted share on %s = %.3f\n", n, t.Accounted[n])
	}
	for _, f := range t.TraceFiles {
		fmt.Fprintf(w, "  spans written to %s\n", f)
	}
	for _, p := range t.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/p2psim"
	"p4p/internal/topology"
)

const (
	swarmFileBytes  = 16 << 20
	swarmAccessBps  = 100e6
	swarmSeedUpBps  = 1e9
	swarmJoinWindow = 300.0
)

// swarmHooks sits at the three boundaries between the simulator and
// the P4P control plane: it is the Selector the simulator calls, the
// ViewProvider P4P.Select calls, and the OnMeasure callback. It times
// what crosses them and, with tracing on, records spans. Everything
// runs on the simulator's goroutine.
type swarmHooks struct {
	tr    *itracker.Server
	next  apptracker.Selector
	stack *callStack // nil with tracing off
	// timeViews makes every view lookup timed, not only the first after
	// a price update; the traced run sets it.
	timeViews bool

	selectLat    []time.Duration
	viewNs       int64
	updateNs     int64
	updateCalls  int
	fresh        []time.Duration
	sinceUpdate  time.Duration // >0: a price update no view lookup has followed yet
	heapPeak     uint64
	sampleHeap   bool
	oracleFailed int
}

func (h *swarmHooks) Name() string { return h.next.Name() }

// Select is one peer-selection call of the simulator, the swarm
// workload's op. The oracle is the Selector contract: no duplicates, in
// range (the simulator pre-excludes self).
func (h *swarmHooks) Select(self apptracker.Node, candidates []apptracker.Node, m int, rng *rand.Rand) []int {
	var l liveSpan
	if h.stack != nil {
		l = h.stack.push(spanSelect)
	}
	t0 := time.Now()
	idx := h.next.Select(self, candidates, m, rng)
	h.selectLat = append(h.selectLat, time.Since(t0))
	if h.stack != nil {
		h.stack.pop(l, "")
	}
	if len(idx) > m {
		h.oracleFailed++
	}
	for k, i := range idx {
		if i < 0 || i >= len(candidates) || candidates[i].ID == self.ID {
			h.oracleFailed++
			break
		}
		for _, j := range idx[:k] {
			if i == j {
				h.oracleFailed++
			}
		}
	}
	return idx
}

// ViewFor is experiments' liveViews: the iTracker's version-cached view.
// The first lookup after a price update pays the recompute; its time
// plus the update's is one freshness sample.
func (h *swarmHooks) ViewFor(int) apptracker.DistanceView {
	if h.sinceUpdate == 0 && !h.timeViews {
		return h.view()
	}
	var l liveSpan
	if h.stack != nil {
		l = h.stack.push(spanViewFor)
	}
	t0 := time.Now()
	v := h.view()
	d := time.Since(t0)
	if h.stack != nil {
		h.stack.pop(l, "")
	}
	h.viewNs += int64(d)
	if h.sinceUpdate > 0 {
		h.fresh = append(h.fresh, h.sinceUpdate+d)
		h.sinceUpdate = 0
	}
	return v
}

func (h *swarmHooks) view() apptracker.DistanceView {
	v, err := h.tr.Distances("")
	if err != nil {
		return nil
	}
	return v
}

func (h *swarmHooks) onMeasure(_ float64, rates []float64) {
	var l liveSpan
	if h.stack != nil {
		l = h.stack.push(spanUpdate)
	}
	t0 := time.Now()
	h.tr.ObserveAndUpdate(rates)
	d := time.Since(t0)
	if h.stack != nil {
		h.stack.pop(l, "")
	}
	h.updateNs += int64(d)
	h.updateCalls++
	h.sinceUpdate = d
	if h.sampleHeap {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > h.heapPeak {
			h.heapPeak = ms.HeapInuse
		}
	}
}

// swarmOutcome is one finished swarm.
type swarmOutcome struct {
	wall      time.Duration
	leechers  int
	completed int
	meanDone  float64
	total     float64
	linkHash  uint64
}

// fingerprint is what must repeat exactly across trials of one seed.
func (o swarmOutcome) fingerprint() string {
	return fmt.Sprintf("%d/%d mean=%x bytes=%x links=%x", o.completed, o.leechers,
		math.Float64bits(o.meanDone), math.Float64bits(o.total), o.linkHash)
}

// runSwarm runs one BitTorrent swarm on Abilene the way
// experiments.runIntradomainSwarm builds its MLU case: step 0.3 engine,
// iTracker in the loop, clients re-querying the tracker every 20 s,
// link rates fed back every 2 s. hooks nil runs the native (Random)
// policy on the same swarm instead.
func runSwarm(g *topology.Graph, r *topology.Routing, leechers int, seed int64, hooks *swarmHooks, rec *recorder) swarmOutcome {
	cfg := p2psim.Config{
		Graph:            g,
		Routing:          r,
		Seed:             seed,
		FileBytes:        swarmFileBytes,
		SampleInterval:   2,
		TCPWindowBytes:   32 << 10,
		ReselectInterval: 20,
	}
	if hooks == nil {
		cfg.Selector = apptracker.Random{}
	} else {
		engine := core.NewEngine(g, r, core.Config{Objective: core.MinimizeMLU, StepSize: 0.3})
		hooks.tr = itracker.New(itracker.Config{Name: g.Name, ASN: g.Node(0).ASN}, engine, nil)
		hooks.next = &apptracker.P4P{Views: hooks, Config: apptracker.P4PConfig{Gamma: 1.0}}
		hooks.sinceUpdate = 0
		cfg.Selector = hooks
		cfg.MeasureInterval = 2
		cfg.OnMeasure = hooks.onMeasure
	}
	sim := p2psim.New(cfg)
	spreadClients(sim, g, leechers, rand.New(rand.NewSource(seed+1)))
	root := rec.beginRoot(spanSimRun)
	if hooks != nil && hooks.stack != nil {
		hooks.stack.open = append(hooks.stack.open[:0], root.spanRef)
	}
	t0 := time.Now()
	res := sim.Run()
	out := swarmOutcome{wall: time.Since(t0), leechers: leechers}
	rec.end(root, "")
	out.completed = len(res.CompletionTimes())
	out.meanDone = res.MeanCompletionTime()
	out.total = res.TotalBytes
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.LinkBytes {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	out.linkHash = h.Sum64()
	return out
}

// spreadClients is experiments.spreadClients for Abilene: one seed at
// the first PID and n leechers joining over five minutes, placed by the
// metro-population profile with the north-eastern concentration the
// paper calls out.
func spreadClients(s *p2psim.Sim, g *topology.Graph, n int, rng *rand.Rand) {
	population := map[string]float64{
		"NewYork": 0.22, "WashingtonDC": 0.18, "Chicago": 0.12,
		"LosAngeles": 0.12, "Atlanta": 0.09, "Indianapolis": 0.05,
		"Houston": 0.06, "Denver": 0.05, "KansasCity": 0.04,
		"Seattle": 0.04, "Sunnyvale": 0.03,
	}
	pids := g.AggregationPIDs()
	asn := g.Node(0).ASN
	s.AddClient(p2psim.ClientSpec{
		PID: pids[0], ASN: asn, UpBps: swarmSeedUpBps, DownBps: swarmSeedUpBps, IsSeed: true, Class: "seed",
	})
	cum := make([]float64, len(pids))
	total := 0.0
	for i, pid := range pids {
		total += population[g.Node(pid).Name]
		cum[i] = total
	}
	for i := 0; i < n; i++ {
		k := sort.SearchFloat64s(cum, rng.Float64()*total)
		if k >= len(pids) {
			k = len(pids) - 1
		}
		s.AddClient(p2psim.ClientSpec{
			PID: pids[k], ASN: asn, UpBps: swarmAccessBps, DownBps: swarmAccessBps,
			JoinAt: swarmJoinWindow * float64(i) / float64(n),
		})
	}
}

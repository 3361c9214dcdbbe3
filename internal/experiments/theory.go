package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"p4p/internal/charging"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/metrics"
	"p4p/internal/topology"
	"p4p/internal/traffic"
)

// superGradientConvergence is experiment X2: Proposition 1 in action.
// An application session repeatedly solves its local bandwidth-matching
// program against the current p-distances; the iTracker updates prices
// by projected super-gradient; the time-averaged traffic pattern's MLU
// approaches the centralized LP optimum of Figure 4.
func superGradientConvergence(opt Options, rep *Report) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	s := randomSession(pids, opt.Seed)
	bg := make([]float64, g.NumLinks())
	optAlpha, _, err := core.OptimalMLU(r, bg, []core.Session{s}, 1.0)
	if err != nil {
		rep.note("OptimalMLU failed: %v", err)
		return
	}

	e := core.NewEngine(g, r, core.Config{Objective: core.MinimizeMLU, StepSize: 0.05})
	iters := opt.scaled(200)
	avgLoads := make([]float64, g.NumLinks())
	for it := 1; it <= iters; it++ {
		view := e.Matrix(pids)
		tm, err := core.MatchTraffic(view, s, 1.0)
		if err != nil {
			rep.note("MatchTraffic failed at iteration %d: %v", it, err)
			return
		}
		loads := make([]float64, g.NumLinks())
		core.LinkLoads(r, pids, tm, loads)
		for i := range avgLoads {
			avgLoads[i] += (loads[i] - avgLoads[i]) / float64(it)
		}
		e.ObserveTraffic(loads)
		e.Update()
		if it%10 == 0 || it == 1 {
			mlu := mluOf(g, avgLoads)
			rep.Series["avg-mlu"] = append(rep.Series["avg-mlu"], [2]float64{float64(it), mlu})
		}
	}
	final := mluOf(g, avgLoads)
	rep.Values["optimal-mlu"] = optAlpha
	rep.Values["decomposed-avg-mlu"] = final
	rep.Values["gap-ratio"] = metrics.Ratio(final, optAlpha)
	rep.note("time-averaged MLU after %d iterations vs the centralized LP optimum", iters)
}

// randomSession is X2's and A1's application session: every PID uploads
// and downloads a seeded random 1-3 Gbps.
func randomSession(pids []topology.PID, seed int64) core.Session {
	rng := rand.New(rand.NewSource(seed))
	s := core.Session{PIDs: pids}
	for range pids {
		s.Up = append(s.Up, (0.5+rng.Float64())*2e9)
		s.Down = append(s.Down, (0.5+rng.Float64())*2e9)
	}
	return s
}

func mluOf(g *topology.Graph, loads []float64) float64 {
	mlu := 0.0
	for i, l := range g.Links() {
		if u := loads[i] / l.CapacityBps; u > mlu {
			mlu = u
		}
	}
	return mlu
}

// chargingPrediction is experiment X3: Section 6.1's observation that a
// pure sliding window over/under-estimates the charging volume when the
// previous period's level differs from the current one, while the
// hybrid window tracks it.
func chargingPrediction(opt Options, rep *Report) {
	iPer := 288 * 7 // one week as the charging period, 5-minute intervals
	model := charging.Model{Q: 0.95, PeriodIntervals: iPer}
	hybrid := &charging.Predictor{Model: model, WarmupIntervals: 288}

	tbl := &metrics.Table{Header: []string{"level shift", "truth", "hybrid err %", "sliding err %"}}
	for _, shift := range []float64{0.25, 0.5, 2, 4} {
		cfg1 := traffic.DefaultConfig(1e9)
		cfg1.Seed = opt.Seed
		period1 := traffic.Generate(cfg1, iPer)
		cfg2 := cfg1
		cfg2.MeanBps = 1e9 * shift
		cfg2.Seed = opt.Seed + 1
		period2 := traffic.Generate(cfg2, iPer)
		// Observe period 1 fully and 60% of period 2.
		hist := append(append([]float64{}, period1...), period2[:iPer*6/10]...)
		truth := charging.Percentile(period2, model.Q)
		hybridPred := hybrid.PredictChargingVolume(hist)
		sliding := charging.Percentile(hist[len(hist)-iPer:], model.Q)
		hErr := 100 * math.Abs(hybridPred-truth) / truth
		sErr := 100 * math.Abs(sliding-truth) / truth
		tbl.AddRow(shift, truth, hErr, sErr)
		rep.Values[fmt.Sprintf("hybrid-err-pct/shift=%.2g", shift)] = hErr
		rep.Values[fmt.Sprintf("sliding-err-pct/shift=%.2g", shift)] = sErr
	}
	rep.addTable(tbl)
	rep.note("pure sliding windows mix the previous period's level into the estimate")
}

// ablationBeta is ablation A1: the efficiency factor beta of eq. (6).
// Lower beta lets the session trade total matched volume for network
// efficiency: cost and achievable MLU fall with beta.
func ablationBeta(opt Options, rep *Report) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	s := randomSession(pids, opt.Seed)
	view := core.HopCountView(r, pids)
	opt0, err := core.MaxMatching(s)
	if err != nil {
		rep.note("MaxMatching failed: %v", err)
		return
	}
	tbl := &metrics.Table{Header: []string{"beta", "shipped Gbps", "cost (hop-weighted Gbps)", "MLU"}}
	for _, beta := range []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5} {
		tm, err := core.MatchTraffic(view, s, beta)
		if err != nil {
			rep.note("beta=%v failed: %v", beta, err)
			continue
		}
		shipped := 0.0
		for a := range tm {
			for b := range tm[a] {
				shipped += tm[a][b]
			}
		}
		cost := view.Total(tm)
		loads := make([]float64, g.NumLinks())
		core.LinkLoads(r, pids, tm, loads)
		mlu := mluOf(g, loads)
		tbl.AddRow(beta, shipped/1e9, cost/1e9, mlu)
		rep.Values[fmt.Sprintf("cost-gbps/beta=%.1f", beta)] = cost / 1e9
		rep.Values[fmt.Sprintf("mlu/beta=%.1f", beta)] = mlu
		rep.Values[fmt.Sprintf("shipped-frac/beta=%.1f", beta)] = shipped / opt0
	}
	rep.addTable(tbl)
}

// ablationAggregation is ablation A3: PID aggregation granularity. The
// finest granularity (one PID per client) is precise but forces the
// iTracker to answer per-client queries and reveals client locations;
// PoP aggregation shrinks both the view and the query load by orders of
// magnitude while preserving the distances (clients at the same PoP
// share routes).
func ablationAggregation(opt Options, rep *Report) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	clientsPerPoP := opt.scaled(100)
	pops := g.NumNodes()
	totalClients := clientsPerPoP * pops

	engine := core.NewEngine(g, r, core.Config{})
	tr := itracker.New(itracker.Config{Name: "agg", ASN: 1}, engine, nil)

	// PoP-level: one appTracker query serves every client until prices
	// change.
	if _, err := tr.Distances(""); err != nil {
		rep.note("distance query failed: %v", err)
		return
	}
	popQueries, _ := tr.Stats()
	popViewCells := pops * pops

	// Client-level: every client must query for its own (dynamic) PID
	// row, and the full mesh squares with the client count.
	clientQueries := int64(totalClients)
	clientViewCells := totalClients * totalClients

	tbl := &metrics.Table{Header: []string{"granularity", "PIDs", "view cells", "queries"}}
	tbl.AddRow("per-client", totalClients, clientViewCells, clientQueries)
	tbl.AddRow("per-PoP", pops, popViewCells, popQueries)
	rep.addTable(tbl)
	rep.Values["view-cells-ratio"] = float64(clientViewCells) / float64(popViewCells)
	rep.Values["query-ratio"] = float64(clientQueries) / float64(popQueries)

	// Distance fidelity: clients at one PoP share routes, so PoP
	// aggregation loses nothing for PoP-homed clients: a per-client
	// matrix would replicate the PoP pair's exact value for every client
	// pair homed there, so the deviation is zero by construction.
	rep.Values["distance-deviation"] = 0
	rep.note("%d clients across %d PoPs; per-client PIDs square the view and force per-client queries", totalClients, pops)
}

package experiments

import (
	"fmt"

	"p4p/internal/charging"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/metrics"
	"p4p/internal/p2psim"
	"p4p/internal/topology"
	"p4p/internal/traffic"
)

// figure10Interdomain reproduces the interdomain multihoming experiments
// of Section 7.3 (Figure 10): Abilene is split into two "virtual" ISPs
// by two interdomain circuits; virtual P2P capacities for those circuits
// are derived from historical (synthetic diurnal) traffic volumes under
// the 95th-percentile charging model; the three BitTorrent variants run
// as in Figure 6. Reported: completion-time CDFs (10a) and the charging
// volume of each interdomain circuit per policy (10b).
func figure10Interdomain(opt Options, rep *Report) {
	n := opt.scaled(160)
	rep.note("two virtual ISPs over Abilene; %d clients; 12 MB file; 95th-percentile charging", n)
	base := figure10Cell(n, opt.Seed)
	cuts := topology.InterdomainCuts(base.Graph())
	for ci, cut := range cuts {
		rep.Values[fmt.Sprintf("virtual-capacity-mbps/circuit%d", ci+1)] = base.virtualBps[cut[0]] / 1e6
	}

	tbl := &metrics.Table{Header: []string{"policy", "mean completion s", "p99 completion s", "charge circuit1 MB", "charge circuit2 MB"}}
	policies := []string{policyNative, policyLocalized, policyP4P}
	for i, res := range opt.runCells(arms(base, policies...)) {
		policy := policies[i]
		ct := rep.completionCDF("", policy, res.CompletionTimes())
		var charges []float64
		for ci, cut := range cuts {
			worst := 0.0
			for _, e := range cut {
				if e < 0 {
					continue
				}
				led := res.Ledgers[e]
				vols := led.Volumes()
				if len(vols) == 0 {
					continue
				}
				c := charging.Percentile(vols, 0.95)
				if c > worst {
					worst = c
				}
			}
			charges = append(charges, worst/(1<<20))
			rep.Values[fmt.Sprintf("charging-mb/%s/circuit%d", policy, ci+1)] = worst / (1 << 20)
		}
		tbl.AddRow(policy, ct.Mean(), ct.Quantile(0.99), charges[0], charges[1])
		rep.Values["p99-completion/"+policy] = ct.Quantile(0.99)
	}
	rep.addTable(tbl)
	// Headline ratios: the paper reports the second (backup) circuit's
	// charging volume at 3x (native) and 2x (localized) that of P4P.
	rep.compare("charge-ratio-circuit2/native-vs-p4p", metrics.Ratio, "charging-mb/native/circuit2", "charging-mb/p4p/circuit2")
	rep.compare("charge-ratio-circuit2/localized-vs-p4p", metrics.Ratio, "charging-mb/localized/circuit2", "charging-mb/p4p/circuit2")
}

// figure10Cell is one Figure 10 swarm on Abilene split into two virtual
// ISPs: n clients sharing a 12 MB file, a ledger on every interdomain
// link, and for P4P an MLU iTracker that keeps each circuit under its
// virtual capacity v_e.
func figure10Cell(n int, seed int64) Cell {
	g := topology.AbileneVirtualISPs()
	// Virtual capacities v_e from a month of synthetic diurnal history
	// on each circuit: the first circuit is the primary (more headroom),
	// the second the expensive backup (tight headroom). Sizes are scaled
	// to the experiment's traffic so that exceeding v_e is possible, as
	// in the paper's field configuration.
	est := &charging.VirtualCapacityEstimator{
		Predictor: charging.Predictor{Model: charging.StandardMonthly(), WarmupIntervals: 288},
		Average:   charging.MovingAverage{Window: 12},
	}
	meanBps := []float64{100e6, 30e6}
	veBps := map[topology.LinkID]float64{}
	var watch []topology.LinkID // every circuit's links, in cut order
	for ci, cut := range topology.InterdomainCuts(g) {
		cfg := traffic.DefaultConfig(meanBps[ci%len(meanBps)])
		cfg.Seed = seed + int64(ci)
		hist := traffic.Generate(cfg, charging.StandardMonthly().PeriodIntervals)
		ve := est.Estimate(hist) * 8 / cfg.IntervalSec // bytes/interval -> bits/sec
		for _, e := range cut {
			if e >= 0 {
				veBps[e] = ve
				watch = append(watch, e)
			}
		}
	}
	return Cell{
		sim: p2psim.Config{
			Graph: g, Routing: topology.ComputeRouting(g), Seed: seed, FileBytes: 12 << 20,
			WatchLedgers:   &p2psim.LedgerConfig{Links: watch, IntervalSec: 10},
			TCPWindowBytes: 32 << 10, ReselectInterval: 20,
		},
		place:   placement{clients: n, seedBps: 800e3, leecherBps: 100e6, joinWindow: 300, rngSeed: seed + 7},
		measure: 5,
		engine:  core.Config{Objective: core.MinimizeMLU, StepSize: 0.3},
		// Both virtual ISPs run iTrackers; a single engine over the
		// shared physical graph plays both, serving each AS the same
		// external view.
		virtualBps: veBps,
		tracker:    itracker.Config{Name: "virtual-isp-west", ASN: 1},
	}
}

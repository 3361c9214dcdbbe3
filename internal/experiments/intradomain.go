package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/metrics"
	"p4p/internal/p2psim"
	"p4p/internal/topology"
)

// Table1Networks reproduces Table 1: the networks evaluated.
func Table1Networks(opt Options) *Report {
	_ = opt.withDefaults()
	r := newReport("T1", "Summary of networks evaluated (Table 1)")
	tbl := &metrics.Table{Header: []string{"Network", "Region", "Aggregation", "#Nodes", "#Links", "Usage"}}
	rows := []struct {
		g      *topology.Graph
		region string
		level  string
		usage  string
	}{
		{topology.Abilene(), "US", "router-level", "Internet experiments, simulation"},
		{topology.ISPA(), "US", "PoP-level", "simulation"},
		{topology.ISPB(), "US", "PoP-level", "Internet experiments"},
		{topology.ISPC(), "International", "PoP-level", "Internet experiments"},
	}
	for _, row := range rows {
		tbl.AddRow(row.g.Name, row.region, row.level, row.g.NumNodes(), row.g.NumLinks(), row.usage)
		r.Values["nodes/"+row.g.Name] = float64(row.g.NumNodes())
	}
	r.addTable(tbl)
	return r
}

// intradomainCell is the Section 7.2 swarm on one AS: 100 Mbps
// leechers joining over 300 s, every client re-querying the tracker
// every 20 s (the appTracker "periodically obtains p-distances from
// iTrackers"), and for P4P the MLU iTracker fed link rates every 2 s.
func intradomainCell(policy string, g *topology.Graph, r *topology.Routing, n int, fileBytes int64, seedBps float64, seed int64, gamma float64) Cell {
	return Cell{
		policy: policy,
		sim: p2psim.Config{
			Graph: g, Routing: r, Seed: seed, FileBytes: fileBytes,
			SampleInterval: 2, TCPWindowBytes: 32 << 10, ReselectInterval: 20,
		},
		place:   placement{clients: n, seedBps: seedBps, leecherBps: 100e6, joinWindow: 300, rngSeed: seed + 1},
		p4p:     apptracker.P4PConfig{Gamma: gamma},
		measure: 2,
		engine:  core.Config{Objective: core.MinimizeMLU, StepSize: 0.3},
		tracker: itracker.Config{Name: g.Name, ASN: g.Node(0).ASN},
	}
}

// figure6Cell is one Figure 6 swarm on Abilene: n clients sharing a
// 12 MB file from a 100 KBps seed, and for P4P an iTracker that
// protects the WashingtonDC<->NewYork circuit, fed every 10 s.
func figure6Cell(n int, seed int64) Cell {
	g := topology.Abilene()
	protect := protectedCircuit(g)
	c := intradomainCell("", g, topology.ComputeRouting(g), n, 12<<20, 100e3*8, seed, 0.5)
	c.sim.WatchLinks = protect
	c.protect, c.measure = protect, 10
	return c
}

// sweepCell is one Figure 7/8 swarm: the paper's simulations share a
// 256 MB file in 256 KB pieces over 100 Mbps access links with a 1 Gbps
// seed.
func sweepCell(g *topology.Graph, r *topology.Routing, n int, seed int64) Cell {
	return intradomainCell("", g, r, n, 256<<20, 1e9, seed, 1.0)
}

// Figure6BitTorrentInternet reproduces the PlanetLab BitTorrent
// experiments of Section 7.2 (Figure 6): three parallel swarms of 160
// university clients sharing a 12 MB file with a 100 KBps seed, and an
// iTracker protecting the high-utilization Washington DC -> New York
// link. Reported: per-client completion-time CDFs (6a) and P2P traffic
// on the protected bottleneck link (6b).
func Figure6BitTorrentInternet(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("F6", "BitTorrent Internet experiments (Figure 6)")
	n := opt.scaled(160)
	rep.note("swarm %d clients, 12 MB file, 100 KBps seed, protected circuit WashingtonDC<->NewYork", n)

	tbl := &metrics.Table{Header: []string{"policy", "mean completion s", "p95 completion s", "bottleneck MB"}}
	base := figure6Cell(n, opt.Seed)
	policies := []string{policyP4P, policyLocalized, policyNative}
	for i, res := range opt.runCells(arms(base, policies...)) {
		policy := policies[i]
		cdf := metrics.NewCDF(res.CompletionTimes())
		rep.Series["completion-cdf/"+policy] = cdf.Points(20)
		// The protected circuit's volume: the max over its directions,
		// matching the paper's per-link bottleneck-traffic bars.
		watchBytes := 0.0
		for _, e := range base.protect {
			watchBytes = math.Max(watchBytes, res.LinkBytes[e])
		}
		mb := watchBytes / (1 << 20)
		tbl.AddRow(policy, cdf.Mean(), cdf.Quantile(0.95), mb)
		rep.Values["mean-completion/"+policy] = cdf.Mean()
		rep.Values["bottleneck-mb/"+policy] = mb
	}
	rep.addTable(tbl)
	rep.Values["bottleneck-ratio/native-vs-p4p"] = metrics.Ratio(
		rep.Values["bottleneck-mb/"+policyNative], rep.Values["bottleneck-mb/"+policyP4P])
	rep.Values["bottleneck-ratio/localized-vs-p4p"] = metrics.Ratio(
		rep.Values["bottleneck-mb/"+policyLocalized], rep.Values["bottleneck-mb/"+policyP4P])
	rep.Values["completion-improvement-pct/p4p-vs-native"] = metrics.ImprovementPercent(
		rep.Values["mean-completion/"+policyNative], rep.Values["mean-completion/"+policyP4P])
	return rep
}

// Figure7SwarmSize reproduces the swarm-size sweep of Figure 7 on
// Abilene: average completion time for swarms of 200-800 peers (7a) and
// the bottleneck link utilization over time at swarm size 700 (7b).
func Figure7SwarmSize(opt Options) *Report {
	return swarmSizeSweep(opt, "F7", topology.Abilene(), false)
}

// Figure8ISPA repeats the sweep on the ISP-A PoP-level topology
// (Figure 8), reporting values normalized by native's maximum as the
// paper does.
func Figure8ISPA(opt Options) *Report {
	return swarmSizeSweep(opt, "F8", topology.ISPA(), true)
}

func swarmSizeSweep(opt Options, id string, g *topology.Graph, normalize bool) *Report {
	opt = opt.withDefaults()
	rep := newReport(id, fmt.Sprintf("Swarm-size sweep on %s (Figure %s)", g.Name, id[1:]))
	r := topology.ComputeRouting(g)
	sizes := []int{200, 300, 400, 500, 600, 700, 800}
	utilSize := 700
	rep.note("topology %s, 256 MB file, swarm sizes %v scaled by %.2f", g.Name, sizes, opt.Scale)

	tbl := &metrics.Table{Header: []string{"swarm", "native s", "localized s", "p4p s"}}
	// Every (size, policy) pair is a cell with its own seed
	// (opt.Seed+size); the table and series are assembled in
	// (size, policy) order.
	policies := []string{policyNative, policyLocalized, policyP4P}
	var cells []Cell
	for _, size := range sizes {
		cells = append(cells, arms(sweepCell(g, r, opt.scaled(size), opt.Seed+int64(size)), policies...)...)
	}
	results := opt.runCells(cells)
	var impSum float64
	peakUtil := map[string]float64{}
	for si, size := range sizes {
		n := opt.scaled(size)
		row := []interface{}{n}
		means := map[string]float64{}
		for pi, policy := range policies {
			res := results[si*len(policies)+pi]
			means[policy] = meanOrNaN(res.CompletionTimes())
			row = append(row, means[policy])
			rep.Series["completion/"+policy] = append(rep.Series["completion/"+policy], [2]float64{float64(n), means[policy]})
			if size == utilSize {
				for _, s := range res.Samples {
					rep.Series["utilization/"+policy] = append(rep.Series["utilization/"+policy], [2]float64{s.T, s.MaxUtil * 100})
				}
				peakUtil[policy] = res.PeakUtilization()
			}
		}
		impSum += metrics.ImprovementPercent(means[policyNative], means[policyP4P])
		tbl.AddRow(row...)
	}
	rep.addTable(tbl)
	// Headline numbers: average improvement across sizes, peak
	// utilization ratio at the 700-peer point.
	rep.Values["avg-completion-improvement-pct/p4p-vs-native"] = impSum / float64(len(sizes))
	rep.Values["peak-utilization/native"] = peakUtil[policyNative]
	rep.Values["peak-utilization/localized"] = peakUtil[policyLocalized]
	rep.Values["peak-utilization/p4p"] = peakUtil[policyP4P]
	rep.Values["peak-utilization-ratio/native-vs-p4p"] = metrics.Ratio(peakUtil[policyNative], peakUtil[policyP4P])
	rep.Values["peak-utilization-ratio/localized-vs-p4p"] = metrics.Ratio(peakUtil[policyLocalized], peakUtil[policyP4P])
	if normalize {
		// Normalize completion series by native's maximum (Figure 8a).
		maxNative := 0.0
		for _, pt := range rep.Series["completion/"+policyNative] {
			if pt[1] > maxNative {
				maxNative = pt[1]
			}
		}
		if maxNative > 0 {
			for _, policy := range policies {
				series := rep.Series["completion/"+policy]
				for i := range series {
					series[i][1] /= maxNative
				}
			}
		}
	}
	return rep
}

// Figure9Liveswarms reproduces the Liveswarms streaming integration
// (Figure 9): 53 clients streaming a 90-minute video for 20 minutes;
// native versus P4P backbone traffic volume, with throughput held.
func Figure9Liveswarms(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("F9", "Liveswarms streaming integration (Figure 9)")
	g := topology.Abilene()
	n := opt.scaled(53)
	duration := 1200 * opt.Scale
	if duration < 120 {
		duration = 120
	}
	rep.note("%d clients, 90-min 400 kbps stream, %.0f s runs", n, duration)
	tbl := &metrics.Table{Header: []string{"policy", "avg backbone MB", "mean goodput kbps"}}
	base := Cell{
		sim: p2psim.Config{
			Graph: g, Routing: topology.ComputeRouting(g), Seed: opt.Seed,
			PieceBytes: 64 << 10, MaxTime: duration, ReselectInterval: 20,
			// A small neighbor set keeps selection meaningful at the
			// paper's 53-client swarm size.
			NeighborTarget: 6,
			Streaming:      &p2psim.StreamingConfig{RateBps: 400e3, ContentSec: 90 * 60, WindowSec: 60},
		},
		place: placement{clients: n, seedBps: 20e6, leecherBps: 10e6, joinWindow: 60, rngSeed: opt.Seed + 2},
		// The streaming integration runs against a
		// bandwidth-distance-product iTracker: its exposed distances
		// p_ij + d_ij carry locality even before congestion prices
		// build up, which is what cuts backbone volume for a
		// short-lived streaming session.
		p4p:     apptracker.P4PConfig{Gamma: 1.0},
		measure: 10,
		engine:  core.Config{Objective: core.MinimizeBDP, StepSize: 0.2},
		tracker: itracker.Config{Name: g.Name, ASN: g.Node(0).ASN},
	}
	policies := []string{policyNative, policyP4P}
	for i, res := range opt.runCells(arms(base, policies...)) {
		policy := policies[i]
		// Average per-backbone-link traffic volume, the paper's metric.
		var totalLinkBytes float64
		for _, v := range res.LinkBytes {
			totalLinkBytes += v
		}
		avgMB := totalLinkBytes / float64(g.NumLinks()) / (1 << 20)
		goodput := res.TotalBytes * 8 / float64(n) / res.Duration / 1e3
		tbl.AddRow(policy, avgMB, goodput)
		rep.Values["avg-backbone-mb/"+policy] = avgMB
		rep.Values["goodput-kbps/"+policy] = goodput
	}
	rep.addTable(tbl)
	rep.Values["backbone-reduction-pct"] = metrics.ImprovementPercent(
		rep.Values["avg-backbone-mb/"+policyNative], rep.Values["avg-backbone-mb/"+policyP4P])
	return rep
}

// AblationConcave is design-choice ablation A2: the concave transform
// on selection weights (the paper's lightweight robustness constraint,
// eq. 7) versus raw inverse-distance weights, in the Figure 6 setting.
func AblationConcave(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("A2", "Ablation: concave robustness transform (eq. 7)")
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	n := opt.scaled(160)
	tbl := &metrics.Table{Header: []string{"gamma", "mean completion s", "bottleneck MB", "max-PID-share"}}
	// MLU-engine mode: prices spread across links, so the distance
	// matrix has the contrast the transform acts on. Each gamma is a
	// cell.
	gammas := []float64{1.0, 0.5}
	cells := make([]Cell, len(gammas))
	for i, gamma := range gammas {
		cells[i] = intradomainCell(policyP4P, g, r, n, 12<<20, 1e9, opt.Seed, gamma)
	}
	for i, res := range opt.runCells(cells) {
		gamma := gammas[i]
		ct := res.CompletionTimes()
		_, bottleneckBytes := res.BottleneckTraffic()
		maxShare := maxSourcePIDShare(res.PIDBytes)
		tbl.AddRow(gamma, meanOrNaN(ct), bottleneckBytes/(1<<20), maxShare)
		rep.Values[fmt.Sprintf("mean-completion/gamma=%.1f", gamma)] = meanOrNaN(ct)
		rep.Values[fmt.Sprintf("max-pid-share/gamma=%.1f", gamma)] = maxShare
	}
	rep.addTable(tbl)
	return rep
}

// maxSourcePIDShare is A2's spread measure: the largest share of
// traffic received from a single source PID (lower = more diverse = more
// robust). It sums in key order, so its bits do not follow map order.
func maxSourcePIDShare(pidBytes map[[2]topology.PID]float64) float64 {
	keys := make([][2]topology.PID, 0, len(pidBytes))
	for key := range pidBytes {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b [2]topology.PID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	perPID := map[topology.PID]float64{}
	total := 0.0
	for _, key := range keys {
		perPID[key[0]] += pidBytes[key]
		total += pidBytes[key]
	}
	maxShare := 0.0
	for _, b := range perPID {
		if s := b / total; s > maxShare {
			maxShare = s
		}
	}
	return maxShare
}

// protectedCircuit returns the duplex Washington DC <-> New York circuit
// of Abilene — "one of the most congested links on Abilene most of the
// time" — which the Figure 6 iTracker protects.
func protectedCircuit(g *topology.Graph) []topology.LinkID {
	link := func(from, to string) topology.LinkID {
		src, okSrc := g.FindNode(from)
		dst, okDst := g.FindNode(to)
		if okSrc && okDst {
			if e, ok := g.FindLink(src, dst); ok {
				return e
			}
		}
		panic("experiments: Abilene has no " + from + "->" + to + " link")
	}
	return []topology.LinkID{link("WashingtonDC", "NewYork"), link("NewYork", "WashingtonDC")}
}

package experiments

import (
	"math/rand"
	"sync"

	"p4p/internal/fieldtest"
	"p4p/internal/metrics"
	"p4p/internal/topology"
)

// fieldCache holds the two parallel field-test swarms, run once per
// seed: Figure 11, Tables 2-3 and Figure 12 all read the same
// deployment.
var fieldCache sync.Map // seed -> *fieldPairResult

type fieldPairResult struct {
	native, p4p *fieldtest.Result
}

func runFieldPair(opt Options) *fieldPairResult {
	// The field-test emulation always runs at its deployment scale: the
	// staged quotas are availability-capped (Section 6.2), so shrinking
	// the ISP-B population would change localization for structural
	// rather than policy reasons, and shifting the ISP-B fraction would
	// distort the supply pools. The bucket-level fluid model makes the
	// full eleven-day window cheap anyway (a few seconds).
	if v, ok := fieldCache.Load(opt.Seed); ok {
		return v.(*fieldPairResult)
	}
	g := topology.ISPB()
	r := topology.ComputeRouting(g)
	// The two parallel deployments are independent cells with disjoint
	// seeds; fan them across the worker pool.
	cfgs := []fieldtest.Config{
		{Graph: g, Routing: r, Policy: fieldtest.Native, Seed: opt.Seed},
		{Graph: g, Routing: r, Policy: fieldtest.P4P, Seed: opt.Seed + 1},
	}
	results := fieldtest.RunMany(cfgs, opt.forEachCell)
	res := &fieldPairResult{native: results[0], p4p: results[1]}
	fieldCache.Store(opt.Seed, res)
	return res
}

// Figure11SwarmStats reproduces Figure 11: the sizes of the two parallel
// swarms over the eleven-day window.
func Figure11SwarmStats(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("F11", "Field-test swarm size statistics (Figure 11)")
	pair := runFieldPair(opt)
	for name, res := range map[string]*fieldtest.Result{"native": pair.native, "p4p": pair.p4p} {
		stride := len(res.SwarmSize)/64 + 1
		for i, pt := range res.SwarmSize {
			if i%stride == 0 {
				rep.Series["swarm-size/"+name] = append(rep.Series["swarm-size/"+name],
					[2]float64{pt.TSec / 86400, float64(pt.Count)})
			}
		}
		peak, peakT := res.PeakSwarmSize()
		rep.Values["peak-size/"+name] = float64(peak)
		rep.Values["peak-day/"+name] = peakT / 86400
	}
	rep.note("paper: swarms peak within the first 3 days, then decay; the two parallel swarms track each other")
	return rep
}

// Table2FieldTestTraffic reproduces Table 2: overall traffic volumes
// between ISP-B and the rest of the Internet, native vs P4P.
func Table2FieldTestTraffic(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("T2", "Overall traffic statistics of field tests (Table 2)")
	pair := runFieldPair(opt)
	rows := []struct {
		label string
		key   [2]string
	}{
		{"External <-> External", [2]string{"ext", "ext"}},
		{"External -> ISP-B", [2]string{"ext", "ispb"}},
		{"ISP-B -> External", [2]string{"ispb", "ext"}},
		{"ISP-B <-> ISP-B", [2]string{"ispb", "ispb"}},
	}
	tbl := &metrics.Table{Header: []string{"flow", "Native bytes", "P4P bytes", "Ratio (Native:P4P)"}}
	var totN, totP float64
	for _, row := range rows {
		nv := pair.native.ASMatrix[row.key]
		pv := pair.p4p.ASMatrix[row.key]
		totN += nv
		totP += pv
		ratio := metrics.Ratio(nv, pv)
		tbl.AddRow(row.label, nv, pv, ratio)
		rep.Values["ratio/"+row.key[0]+"->"+row.key[1]] = ratio
	}
	tbl.AddRow("Total", totN, totP, metrics.Ratio(totN, totP))
	rep.Values["ratio/total"] = metrics.Ratio(totN, totP)
	rep.addTable(tbl)
	rep.note("paper ratios: ext<->ext 0.99, ext->ISP-B 1.53, ISP-B->ext 1.70, ISP-B<->ISP-B 0.15, total 1.01")
	return rep
}

// Table3FieldTestInternal reproduces Table 3: ISP-B internal traffic
// split into same-metro and cross-metro volumes.
func Table3FieldTestInternal(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("T3", "Internal traffic statistics of field tests (Table 3)")
	pair := runFieldPair(opt)
	tbl := &metrics.Table{Header: []string{"swarm", "Total", "Cross-metro", "Same-metro", "% Localization"}}
	for _, row := range []struct {
		name string
		res  *fieldtest.Result
	}{{"Native", pair.native}, {"P4P", pair.p4p}} { // a slice, not a map: the row order is part of the report
		total := row.res.SameMetroBytes + row.res.CrossMetroBytes
		tbl.AddRow(row.name, total, row.res.CrossMetroBytes, row.res.SameMetroBytes, row.res.LocalizationPercent())
		rep.Values["localization-pct/"+row.name] = row.res.LocalizationPercent()
	}
	rep.addTable(tbl)
	rep.note("paper: 6.27%% (Native) -> 57.98%% (P4P)")
	return rep
}

// Figure12aUnitBDP reproduces Figure 12a: the average number of backbone
// links a unit of ISP-B-internal P2P traffic traverses.
func Figure12aUnitBDP(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("F12a", "Average unit bandwidth-distance product (Figure 12a)")
	pair := runFieldPair(opt)
	tbl := &metrics.Table{Header: []string{"swarm", "unit BDP", "metro hops"}}
	tbl.AddRow("Native", pair.native.UnitBDP, pair.native.MetroHops)
	tbl.AddRow("P4P", pair.p4p.UnitBDP, pair.p4p.MetroHops)
	rep.addTable(tbl)
	rep.Values["unit-bdp/native"] = pair.native.UnitBDP
	rep.Values["unit-bdp/p4p"] = pair.p4p.UnitBDP
	rep.Values["unit-bdp-reduction"] = metrics.Ratio(pair.native.UnitBDP, pair.p4p.UnitBDP)
	rep.Values["metro-hops/native"] = pair.native.MetroHops
	rep.Values["metro-hops/p4p"] = pair.p4p.MetroHops
	rep.note("paper: 5.5 -> 0.89 (the average backbone distance between ISP-B PID pairs is 6.2; ours is ~5.0)")
	return rep
}

// Figure12bCompletion reproduces Figure 12b: completion-time CDFs of all
// ISP-B clients.
func Figure12bCompletion(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("F12b", "Field-test completion time, all ISP-B clients (Figure 12b)")
	pair := runFieldPair(opt)
	for name, res := range map[string]*fieldtest.Result{"native": pair.native, "p4p": pair.p4p} {
		cdf := metrics.NewCDF(res.CompletionDurations("", true))
		rep.Series["completion-cdf/"+name] = cdf.Points(20)
		rep.Values["mean-completion/"+name] = cdf.Mean()
	}
	rep.Values["improvement-pct"] = metrics.ImprovementPercent(
		rep.Values["mean-completion/native"], rep.Values["mean-completion/p4p"])
	rep.note("paper: 9460 s (Native) vs 7312 s (P4P), a 23%% improvement")
	return rep
}

// Figure12cFTTP reproduces Figure 12c: completion-time CDFs of the FTTP
// clients in ISP-B.
func Figure12cFTTP(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("F12c", "Field-test completion time, FTTP clients (Figure 12c)")
	pair := runFieldPair(opt)
	for name, res := range map[string]*fieldtest.Result{"native": pair.native, "p4p": pair.p4p} {
		cdf := metrics.NewCDF(res.CompletionDurations("fttp", true))
		rep.Series["fttp-completion-cdf/"+name] = cdf.Points(20)
		rep.Values["mean-fttp-completion/"+name] = cdf.Mean()
	}
	rep.Values["native-over-p4p"] = metrics.Ratio(
		rep.Values["mean-fttp-completion/native"], rep.Values["mean-fttp-completion/p4p"])
	rep.note("paper: 4164 s (Native) vs 2481 s (P4P); Native 68%% higher")
	return rep
}

// MetroHopsClaim covers the Section 1 field observation (X1): each P2P
// bit traversed 5.5 metro-hops on a major carrier; P4P-style selection
// reduces it to 0.89 without hurting completion time.
func MetroHopsClaim(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("X1", "Metro-hop reduction claim (Section 1)")
	pair := runFieldPair(opt)
	rep.Values["metro-hops/native"] = pair.native.MetroHops
	rep.Values["metro-hops/p4p"] = pair.p4p.MetroHops
	rep.Values["mean-completion/native"] = pair.native.MeanCompletionSec("", true)
	rep.Values["mean-completion/p4p"] = pair.p4p.MeanCompletionSec("", true)
	rep.note("paper: 5.5 metro-hops -> 0.89 without degrading application performance")
	return rep
}

// SwarmTailClaim covers the Section 8 scalability measurement (X4): of
// 34,721 movie swarms crawled from thepiratebay.org, only 0.72%% had
// more than one hundred leechers. We sample the same count from the
// calibrated heavy-tailed swarm-size distribution.
func SwarmTailClaim(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("X4", "Swarm-size tail (Section 8)")
	const totalSwarms = 34721
	rng := rand.New(rand.NewSource(opt.Seed))
	over100 := 0
	sum := 0.0
	for i := 0; i < totalSwarms; i++ {
		s := fieldtest.SampleSwarmSize(rng)
		sum += float64(s)
		if s > 100 {
			over100++
		}
	}
	pct := 100 * float64(over100) / float64(totalSwarms)
	rep.Values["swarms"] = totalSwarms
	rep.Values["over-100-leechers-pct"] = pct
	rep.Values["mean-size"] = sum / totalSwarms
	rep.note("paper: 0.72%% of 34,721 swarms exceeded 100 leechers")
	return rep
}

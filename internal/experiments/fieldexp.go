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

// arms keys the two deployments by the names the reports use.
func (p *fieldPairResult) arms() map[string]*fieldtest.Result {
	return map[string]*fieldtest.Result{"native": p.native, "p4p": p.p4p}
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

// figure11SwarmStats reproduces Figure 11: the sizes of the two parallel
// swarms over the eleven-day window.
func figure11SwarmStats(opt Options, rep *Report) {
	for name, res := range runFieldPair(opt).arms() {
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
}

// table2FieldTestTraffic reproduces Table 2: overall traffic volumes
// between ISP-B and the rest of the Internet, native vs P4P.
func table2FieldTestTraffic(opt Options, rep *Report) {
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
}

// table3FieldTestInternal reproduces Table 3: ISP-B internal traffic
// split into same-metro and cross-metro volumes.
func table3FieldTestInternal(opt Options, rep *Report) {
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
}

// figure12aUnitBDP reproduces Figure 12a: the average number of backbone
// links a unit of ISP-B-internal P2P traffic traverses.
func figure12aUnitBDP(opt Options, rep *Report) {
	pair := runFieldPair(opt)
	tbl := &metrics.Table{Header: []string{"swarm", "unit BDP", "metro hops"}}
	tbl.AddRow("Native", pair.native.UnitBDP, pair.native.MetroHops)
	tbl.AddRow("P4P", pair.p4p.UnitBDP, pair.p4p.MetroHops)
	rep.addTable(tbl)
	for name, res := range pair.arms() {
		rep.Values["unit-bdp/"+name] = res.UnitBDP
		rep.Values["metro-hops/"+name] = res.MetroHops
	}
	rep.compare("unit-bdp-reduction", metrics.Ratio, "unit-bdp/native", "unit-bdp/p4p")
	rep.note("paper: 5.5 -> 0.89 (the average backbone distance between ISP-B PID pairs is 6.2; ours is ~5.0)")
}

// figure12bCompletion reproduces Figure 12b: completion-time CDFs of all
// ISP-B clients.
func figure12bCompletion(opt Options, rep *Report) {
	for name, res := range runFieldPair(opt).arms() {
		rep.completionCDF("", name, res.CompletionDurations("", true))
	}
	rep.compare("improvement-pct", metrics.ImprovementPercent, "mean-completion/native", "mean-completion/p4p")
	rep.note("paper: 9460 s (Native) vs 7312 s (P4P), a 23%% improvement")
}

// figure12cFTTP reproduces Figure 12c: completion-time CDFs of the FTTP
// clients in ISP-B.
func figure12cFTTP(opt Options, rep *Report) {
	for name, res := range runFieldPair(opt).arms() {
		rep.completionCDF("fttp-", name, res.CompletionDurations("fttp", true))
	}
	rep.compare("native-over-p4p", metrics.Ratio, "mean-fttp-completion/native", "mean-fttp-completion/p4p")
	rep.note("paper: 4164 s (Native) vs 2481 s (P4P); Native 68%% higher")
}

// metroHopsClaim covers the Section 1 field observation (X1): each P2P
// bit traversed 5.5 metro-hops on a major carrier; P4P-style selection
// reduces it to 0.89 without hurting completion time.
func metroHopsClaim(opt Options, rep *Report) {
	for name, res := range runFieldPair(opt).arms() {
		rep.Values["metro-hops/"+name] = res.MetroHops
		rep.Values["mean-completion/"+name] = res.MeanCompletionSec("", true)
	}
	rep.note("paper: 5.5 metro-hops -> 0.89 without degrading application performance")
}

// swarmTailClaim covers the Section 8 scalability measurement (X4): of
// 34,721 movie swarms crawled from thepiratebay.org, only 0.72% had
// more than one hundred leechers. We sample the same count from the
// calibrated heavy-tailed swarm-size distribution.
func swarmTailClaim(opt Options, rep *Report) {
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
}

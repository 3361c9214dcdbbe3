package experiments

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/federation"
	"p4p/internal/itracker"
	"p4p/internal/metrics"
	"p4p/internal/portal"
	"p4p/internal/topology"
)

// FederationPair exercises the multi-iTracker federation end to end in
// a two-provider scenario (DESIGN.md §14): Abilene split into two
// virtual ISPs, each served by its own live shard portal (an
// itracker.Server restricted to its ASN's PIDs over one shared engine,
// behind real HTTP), an appTracker consuming both concurrently through
// apptracker.MultiPortalViews with the interdomain cuts declared as
// circuits. Reported: how faithfully the composed federation view
// reproduces the engine's global p-distances, how federated P4P
// selection localizes traffic versus native random peering, and that
// selection keeps serving — unchanged — after one provider's portal is
// killed mid-run (the paper's graceful-degradation story, now across
// providers).
func FederationPair(opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport("FED", "Multi-iTracker federation: two providers, live portals")
	g := topology.AbileneVirtualISPs()
	r := topology.ComputeRouting(g)
	eng := core.NewEngine(g, r, core.Config{})
	// Dyadic link prices (k/8): intradomain, circuit, and composed
	// intra+inter+intra sums are all exact in binary floating point, so
	// view agreement below is an == comparison, not an epsilon one.
	for _, l := range g.Links() {
		k := 1 + (int(l.Src)+int(l.Dst))%7
		if l.Interdomain {
			k += 16 // cross-provider links visibly more expensive
		}
		eng.SetPrice(l.ID, float64(k)/8)
	}

	// One shard portal per virtual ISP, both views materialized from
	// the same engine via ServePIDs.
	pidsByASN := map[int][]topology.PID{}
	for _, p := range g.AggregationPIDs() {
		asn := g.Node(p).ASN
		pidsByASN[asn] = append(pidsByASN[asn], p)
	}
	asns := make([]int, 0, len(pidsByASN))
	for asn := range pidsByASN {
		asns = append(asns, asn)
	}
	sort.Ints(asns)
	nameOf := map[int]string{}
	refs := make([]apptracker.PortalRef, 0, len(asns))
	servers := make([]*httptest.Server, 0, len(asns))
	for _, asn := range asns {
		name := fmt.Sprintf("isp%d", asn)
		nameOf[asn] = name
		tr := itracker.New(itracker.Config{Name: name, ASN: asn, ServePIDs: pidsByASN[asn]}, eng, nil)
		srv := httptest.NewServer(portal.NewHandler(tr))
		defer srv.Close()
		servers = append(servers, srv)
		refs = append(refs, apptracker.PortalRef{Name: name, URL: srv.URL})
	}
	rep.note("%d virtual ISPs over Abilene, one live shard portal each", len(asns))

	// Every interdomain cut becomes a federation circuit, costed at the
	// provider's own price for that link — the multihoming inputs of
	// Figure 10, fed to the federation instead of a single tracker.
	var circuits []federation.Circuit
	for _, cut := range topology.InterdomainCuts(g) {
		l := g.Link(cut[0])
		circuits = append(circuits, federation.Circuit{
			A: nameOf[g.Node(l.Src).ASN], APID: l.Src,
			B: nameOf[g.Node(l.Dst).ASN], BPID: l.Dst,
			Cost: eng.Price(l.ID),
		})
	}
	rep.Values["circuits"] = float64(len(circuits))

	base := portal.NewClient(refs[0].URL, "")
	// Portals are in-process; a dead one fails with connection-refused
	// immediately, and retrying it would only add backoff sleeps to the
	// degradation phase below.
	base.Retry.MaxAttempts = 1
	mpv := apptracker.NewMultiPortalViews(base, refs, circuits, time.Hour)
	fedView := mpv.ViewFor(asns[0])
	if fedView == nil {
		rep.note("federation produced no view; aborting")
		return rep
	}

	// View agreement: over every PID pair, does the federation's
	// composed distance equal the engine's global p-distance exactly?
	// Intradomain pairs always agree (copy-through); cross-provider
	// pairs agree when the weight-routed global path crosses at the
	// price-cheapest gateway pair, and the residual is the composition
	// picking a cheaper crossing than OSPF did — reported, not hidden.
	pids := g.AggregationPIDs()
	var pairs, exact int
	for _, i := range pids {
		for _, j := range pids {
			if i == j {
				continue
			}
			pairs++
			if fedView.Distance(i, j) == eng.PDistance(i, j) {
				exact++
			}
		}
	}
	rep.Values["view-pairs"] = float64(pairs)
	rep.Values["view-agreement-fraction"] = float64(exact) / float64(pairs)

	// Peer-matching: a swarm spread across both providers, selected by
	// federated P4P versus native random; count the cross-provider
	// fraction of chosen peers.
	n := opt.scaled(200)
	var swarm []apptracker.Node
	for i := 0; i < n; i++ {
		pid := pids[i%len(pids)]
		swarm = append(swarm, apptracker.Node{ID: i, PID: pid, ASN: g.Node(pid).ASN})
	}
	crossFrac := func(sel apptracker.Selector, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		var picks, cross int
		for _, self := range swarm {
			for _, idx := range sel.Select(self, swarm, 20, rng) {
				picks++
				if swarm[idx].ASN != self.ASN {
					cross++
				}
			}
		}
		if picks == 0 {
			return 0
		}
		return float64(cross) / float64(picks)
	}
	fedCross := crossFrac(&apptracker.P4P{Views: mpv}, opt.Seed)
	nativeCross := crossFrac(apptracker.Random{}, opt.Seed)
	rep.Values["cross-isp-fraction/p4p-federated"] = fedCross
	rep.Values["cross-isp-fraction/native"] = nativeCross
	rep.Values["cross-isp-reduction"] = metrics.Ratio(nativeCross, fedCross)

	// Degradation: kill one provider's portal, expire every cache, and
	// re-select. The survivor plus the dead provider's last-known-good
	// view must keep the decisions identical.
	servers[len(servers)-1].Close()
	mpv.Invalidate()
	degradedView := mpv.ViewFor(asns[0])
	serving := 0.0
	if degradedView != nil && len(degradedView.PIDs) == len(pids) {
		serving = 1
	}
	rep.Values["degraded-full-coverage"] = serving
	degradedCross := crossFrac(&apptracker.P4P{Views: mpv}, opt.Seed)
	rep.Values["cross-isp-fraction/p4p-degraded"] = degradedCross
	st := mpv.Stats()
	deadName := refs[len(refs)-1].Name
	rep.Values["dead-portal-failures"] = float64(st[deadName].Failures)

	tbl := &metrics.Table{Header: []string{"policy", "cross-ISP peer fraction"}}
	tbl.AddRow("native", nativeCross)
	tbl.AddRow("p4p-federated", fedCross)
	tbl.AddRow("p4p-degraded (1 portal dead)", degradedCross)
	rep.addTable(tbl)
	return rep
}

package apptracker

// End-to-end acceptance for the federation subsystem (DESIGN.md §14):
// an appTracker aggregating three live shard portals — each an
// itracker.Server speaking for one PID shard — must produce the SAME
// peer-matching decisions as a single iTracker serving the merged view
// over the identical topology, byte-for-byte stable across independent
// federation instances, and must keep serving when one portal dies
// mid-test.
//
// Floating-point exactness makes "same decisions" a == comparison, not
// an epsilon one: every link price is dyadic (k/8), so intradomain
// sums, circuit costs, and the federation's composed
// intra + circuit + intra sums are all exact in binary floating point
// regardless of association order.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/federation"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/topology"
)

// fedTopology builds a 9-PID chain-of-clusters topology: three
// 3-node provider clusters (ASNs 1,2,3) joined by single interdomain
// circuits 2–3 and 5–6, every link priced dyadically.
//
//	[0-1-2] --AB-- [3-4-5] --BC-- [6-7-8]
func fedTopology() (*core.Engine, [2]float64) {
	g := topology.NewGraph("fed-chain")
	for asn := 1; asn <= 3; asn++ {
		for i := 0; i < 3; i++ {
			g.AddNode(topology.Node{Kind: topology.Aggregation, ASN: asn})
		}
	}
	base := func(asn int) topology.PID { return topology.PID(3 * (asn - 1)) }
	for asn := 1; asn <= 3; asn++ {
		b := base(asn)
		g.AddDuplex(b, b+1, 1e9, 1, 10)
		g.AddDuplex(b+1, b+2, 1e9, 1, 10)
	}
	abF, abR := g.AddDuplex(2, 3, 1e9, 1, 100)
	bcF, bcR := g.AddDuplex(5, 6, 1e9, 1, 100)

	eng := core.NewEngine(g, topology.ComputeRouting(g), core.Config{})
	// Dyadic prices, symmetric per duplex pair: price(src↔dst) depends
	// only on the unordered endpoint sum.
	for _, l := range g.Links() {
		k := 1 + (int(l.Src)+int(l.Dst))%5
		eng.SetPrice(l.ID, float64(k)/8)
	}
	// Interdomain circuits priced higher so the selector's staging is
	// exercised (cross-AS peers are visibly more expensive).
	for _, id := range []topology.LinkID{abF, abR} {
		eng.SetPrice(id, 12.0/8)
	}
	for _, id := range []topology.LinkID{bcF, bcR} {
		eng.SetPrice(id, 20.0/8)
	}
	return eng, [2]float64{eng.PDistance(2, 3), eng.PDistance(5, 6)}
}

// fedShards starts one shard portal per provider over the shared
// engine, returning the live servers (index 0 = ASN 1, etc.).
func fedShards(t *testing.T, eng *core.Engine) []*httptest.Server {
	t.Helper()
	var servers []*httptest.Server
	for asn := 1; asn <= 3; asn++ {
		b := topology.PID(3 * (asn - 1))
		tr := itracker.New(itracker.Config{
			Name:      "shard",
			ASN:       asn,
			ServePIDs: []topology.PID{b, b + 1, b + 2},
		}, eng, nil)
		h := portal.NewHandler(tr)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			// Every member fetch of the union moves its view in binary.
			if ct := w.Header().Get("Content-Type"); w.Header().Get("Etag") != "" && ct != "" && ct != portal.BinaryViewType {
				t.Errorf("shard answered %s with Content-Type %q", r.URL, ct)
			}
		}))
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
	}
	return servers
}

func fedCircuits(refs []PortalRef, costs [2]float64) []federation.Circuit {
	return []federation.Circuit{
		{A: refs[0].Name, APID: 2, B: refs[1].Name, BPID: 3, Cost: costs[0]},
		{A: refs[1].Name, APID: 5, B: refs[2].Name, BPID: 6, Cost: costs[1]},
	}
}

func newFederatedProvider(t *testing.T, servers []*httptest.Server, costs [2]float64) *MultiPortalViews {
	t.Helper()
	refs := make([]PortalRef, len(servers))
	for i, s := range servers {
		refs[i] = PortalRef{Name: s.URL, URL: s.URL}
	}
	return NewMultiPortalViews(portal.NewClient(servers[0].URL, ""), refs, fedCircuits(refs, costs), time.Hour)
}

// fedSwarm builds a deterministic 90-node swarm, 10 per PID.
func fedSwarm() []Node {
	var swarm []Node
	for pid := 0; pid < 9; pid++ {
		for i := 0; i < 10; i++ {
			swarm = append(swarm, Node{ID: pid*10 + i, PID: topology.PID(pid), ASN: pid/3 + 1})
		}
	}
	return swarm
}

func TestFederatedSelectionMatchesMergedITracker(t *testing.T) {
	eng, costs := fedTopology()
	servers := fedShards(t, eng)
	mpv := newFederatedProvider(t, servers, costs)

	// Reference: one iTracker serving the full 9-PID view directly from
	// the same engine, consumed through a plain single-portal cache.
	refSrv := httptest.NewServer(portal.NewHandler(itracker.New(itracker.Config{Name: "merged", ASN: 1}, eng, nil)))
	t.Cleanup(refSrv.Close)
	ref := NewPortalViews(portal.NewClient(refSrv.URL, ""), time.Hour)

	fedView := mpv.ViewFor(1)
	refView := ref.ViewFor(1)
	if fedView == nil || refView == nil {
		t.Fatal("missing view from federation or reference")
	}

	// The merged federation view is element-for-element IDENTICAL to
	// the single iTracker's: same PID universe, exactly equal distances
	// (dyadic prices make the composed sums exact).
	if !reflect.DeepEqual(fedView.PIDs, refView.PIDs) {
		t.Fatalf("PID universe differs: fed %v vs ref %v", fedView.PIDs, refView.PIDs)
	}
	for i := range fedView.D {
		for j := range fedView.D[i] {
			if fedView.D[i][j] != refView.D[i][j] {
				t.Fatalf("D[%d][%d]: federation %v != reference %v",
					i, j, fedView.D[i][j], refView.D[i][j])
			}
		}
	}

	// Identical views + identical rng streams ⇒ identical decisions for
	// every client in the swarm.
	swarm := fedSwarm()
	fedSel := &P4P{Views: mpv}
	refSel := &P4P{Views: ref}
	for _, self := range swarm {
		fedRng := rand.New(rand.NewSource(int64(self.ID)))
		refRng := rand.New(rand.NewSource(int64(self.ID)))
		got := fedSel.Select(self, swarm, 20, fedRng)
		want := refSel.Select(self, swarm, 20, refRng)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: federated selection %v != merged-iTracker selection %v",
				self.ID, got, want)
		}
	}

	// Byte stability: an independent federation instance over the same
	// shards (fresh client, fresh caches) renders the identical wire
	// body.
	mpv2 := newFederatedProvider(t, servers, costs)
	fedView2 := mpv2.ViewFor(1)
	b1, err := json.Marshal(portal.ToWire(fedView))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(portal.ToWire(fedView2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("merged wire body differs between independent federation instances")
	}
}

func TestFederatedSelectionSurvivesPortalDeath(t *testing.T) {
	eng, costs := fedTopology()
	servers := fedShards(t, eng)
	mpv := newFederatedProvider(t, servers, costs)

	before := mpv.ViewFor(1)
	if before == nil || len(before.PIDs) != 9 {
		t.Fatalf("healthy federation view = %v", before)
	}
	swarm := fedSwarm()
	sel := &P4P{Views: mpv}
	self := swarm[0]
	want := sel.Select(self, swarm, 20, rand.New(rand.NewSource(7)))

	// Kill shard C mid-test and force a refresh round. Its
	// last-known-good view keeps the federation whole, so selection
	// still sees all 9 PIDs and — the view content being unchanged —
	// still makes the same decisions.
	servers[2].Close()
	mpv.Invalidate()
	after := mpv.ViewFor(1)
	if after == nil {
		t.Fatal("federation stopped serving after one portal died")
	}
	if len(after.PIDs) != 9 {
		t.Fatalf("PIDs after portal death = %v, want all 9 via last-known-good", after.PIDs)
	}
	got := sel.Select(self, swarm, 20, rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selection changed after portal death: %v != %v", got, want)
	}
	st := mpv.Stats()
	dead := st[servers[2].URL]
	if dead.Failures == 0 {
		t.Errorf("dead portal shows no refresh failures: %+v", dead)
	}
	if live := st[servers[0].URL]; live.Failures != 0 {
		t.Errorf("live portal wrongly charged with failures: %+v", live)
	}
}

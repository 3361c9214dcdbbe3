package itracker

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

func testTracker(cfg Config) (*Server, *topology.Graph) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	e := core.NewEngine(g, r, core.Config{})
	return New(cfg, e, SyntheticPIDMap(g)), g
}

func TestPolicyInterface(t *testing.T) {
	pol := Policy{
		TimeOfDay:          []LinkUsagePolicy{{Link: 3, AvoidFrom: 18, AvoidTo: 23}},
		NearCongestionUtil: 0.7,
		HeavyUsageUtil:     0.9,
	}
	tr, _ := testTracker(Config{Name: "test", ASN: 1, Policy: pol})
	got, err := tr.PolicyFor("")
	if err != nil {
		t.Fatal(err)
	}
	if got.NearCongestionUtil != 0.7 || len(got.TimeOfDay) != 1 {
		t.Fatalf("policy = %+v", got)
	}
}

func TestDistancesServeFullMesh(t *testing.T) {
	tr, g := testTracker(Config{Name: "test", ASN: 1})
	v, err := tr.Distances("")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.PIDs) != len(g.AggregationPIDs()) {
		t.Fatalf("view covers %d PIDs, want %d", len(v.PIDs), g.NumNodes())
	}
	if v.D[0][0] != 0 {
		t.Fatal("diagonal should be zero")
	}
}

// TestNewRefusesServedPIDOutsideGraph: a ServePIDs entry past the
// graph's PIDs used to be accepted, and every Distances then panicked
// inside Engine.Matrix ("index out of range [999] with length 11" on
// Abilene). New now refuses it, naming the PID.
func TestNewRefusesServedPIDOutsideGraph(t *testing.T) {
	g := topology.Abilene()
	e := core.NewEngine(g, topology.ComputeRouting(g), core.Config{})
	for _, bad := range [][]topology.PID{{0, 999}, {-1, 3}, {topology.PID(g.NumNodes())}} {
		cfg := Config{ServePIDs: bad}
		if err := cfg.Check(g); err == nil {
			t.Errorf("Check(%v) = nil, want an error", bad)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "is not in Abilene") {
					t.Errorf("New(ServePIDs %v): recovered %v, want a panic naming the PID", bad, r)
				}
			}()
			New(cfg, e, nil)
		}()
	}
	last := topology.PID(g.NumNodes() - 1)
	tr := New(Config{ServePIDs: []topology.PID{last, 0, last}}, e, nil)
	if v, err := tr.Distances(""); err != nil || len(v.PIDs) != 2 || v.PIDs[0] != 0 || v.PIDs[1] != last {
		t.Errorf("ServePIDs {%d, 0, %d}: view %v, %v; want PIDs [0 %d]", last, last, v, err, last)
	}
}

func TestDistancesCachedByVersion(t *testing.T) {
	tr, g := testTracker(Config{Name: "test", ASN: 1})
	v1, _ := tr.Distances("")
	v2, _ := tr.Distances("")
	if v1 != v2 {
		t.Fatal("view not cached across queries at same engine version")
	}
	tr.ObserveAndUpdate(make([]float64, g.NumLinks()))
	v3, _ := tr.Distances("")
	if v3 == v1 {
		t.Fatal("view not refreshed after price update")
	}
	q, u := tr.Stats()
	if q != 3 || u != 1 {
		t.Fatalf("stats = %d queries, %d updates", q, u)
	}
}

// TestCacheHitAllocs pins the iTracker's serving cache: at an unchanged
// engine version, the view is handed back without allocating.
func TestCacheHitAllocs(t *testing.T) {
	tr, _ := testTracker(Config{Name: "test", ASN: 1})
	ctx := context.Background()
	v, _ := tr.DistancesCtx(ctx, "")
	if allocs := testing.AllocsPerRun(500, func() {
		if got, err := tr.DistancesCtx(ctx, ""); err != nil || got != v {
			t.Fatal("cached view not served")
		}
	}); allocs != 0 {
		t.Errorf("DistancesCtx cache hit: %.1f allocs/op, want 0", allocs)
	}
}

// TestRecomputeAllocs pins a price update's path to a fresh view:
// ObserveAndUpdate and the next Distances allocate the View, its PID
// copy, its row headers, its n×n matrix and the singleflight channel,
// and nothing else — the served PID set is fixed at New.
func TestRecomputeAllocs(t *testing.T) {
	for _, g := range []*topology.Graph{topology.Abilene(), topology.ISPB()} {
		e := core.NewEngine(g, topology.ComputeRouting(g), core.Config{})
		tr := New(Config{Name: g.Name}, e, nil)
		loads := make([]float64, g.NumLinks())
		if allocs := testing.AllocsPerRun(50, func() {
			tr.ObserveAndUpdate(loads)
			if _, err := tr.Distances(""); err != nil {
				t.Fatal(err)
			}
		}); allocs != 5 {
			t.Errorf("%s: ObserveAndUpdate+Distances: %.1f allocs/op, want 5", g.Name, allocs)
		}
	}
}

func TestAccessControl(t *testing.T) {
	tr, _ := testTracker(Config{Name: "test", ASN: 1, TrustedTokens: []string{"secret"}})
	if _, err := tr.Distances("wrong"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("err = %v, want access denied", err)
	}
	if _, err := tr.Distances("secret"); err != nil {
		t.Fatalf("trusted token rejected: %v", err)
	}
	// Open deployments accept anything.
	open, _ := testTracker(Config{Name: "open", ASN: 1})
	if _, err := open.Distances(""); err != nil {
		t.Fatal(err)
	}
}

func TestCapabilities(t *testing.T) {
	caps := []Capability{
		{Kind: "cache", PID: 2, CapacityBps: 1e9},
		{Kind: "on-demand-server", PID: 1, CapacityBps: 5e9, Restricted: true},
	}
	tr, _ := testTracker(Config{Name: "t", ASN: 1, TrustedTokens: []string{"tok"}, Capabilities: caps})
	pub, err := tr.Capabilities("nobody", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(pub) != 1 || pub[0].Kind != "cache" {
		t.Fatalf("public capabilities = %+v", pub)
	}
	all, _ := tr.Capabilities("tok", "")
	if len(all) != 2 {
		t.Fatalf("trusted capabilities = %+v", all)
	}
	servers, _ := tr.Capabilities("tok", "on-demand-server")
	if len(servers) != 1 || servers[0].PID != 1 {
		t.Fatalf("filtered capabilities = %+v", servers)
	}
}

func TestLookupPID(t *testing.T) {
	tr, _ := testTracker(Config{Name: "t", ASN: 42})
	pid, asn, err := tr.LookupPID(SyntheticIP(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if pid != 3 || asn != 42 {
		t.Fatalf("lookup = PID %d ASN %d", pid, asn)
	}
	if _, _, err := tr.LookupPID(net.ParseIP("192.168.1.1")); err == nil {
		t.Fatal("foreign IP should not resolve")
	}
	// Tracker without a map errors cleanly.
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	e := core.NewEngine(g, r, core.Config{})
	bare := New(Config{Name: "bare"}, e, nil)
	if _, _, err := bare.LookupPID(net.ParseIP("10.0.0.1")); err == nil {
		t.Fatal("expected error without PID map")
	}
}

func TestPIDMapLongestPrefix(t *testing.T) {
	m := NewPIDMap()
	if err := m.Add("10.0.0.0/8", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("10.5.0.0/16", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("10.5.5.0/24", 3); err != nil {
		t.Fatal(err)
	}
	cases := map[string]topology.PID{
		"10.1.2.3": 1,
		"10.5.9.9": 2,
		"10.5.5.7": 3,
	}
	for ip, want := range cases {
		got, ok := m.Lookup(net.ParseIP(ip))
		if !ok || got != want {
			t.Errorf("Lookup(%s) = %d, %v; want %d", ip, got, ok, want)
		}
	}
	if _, ok := m.Lookup(net.ParseIP("11.0.0.1")); ok {
		t.Fatal("unexpected match")
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	if err := m.Add("not-a-cidr", 1); err == nil {
		t.Fatal("expected CIDR parse error")
	}
}

func TestSyntheticPIDMapCoversAllPIDs(t *testing.T) {
	g := topology.ISPB()
	m := SyntheticPIDMap(g)
	for _, pid := range g.AggregationPIDs() {
		got, ok := m.Lookup(SyntheticIP(pid, 123))
		if !ok || got != pid {
			t.Fatalf("PID %d: lookup = %d, %v", pid, got, ok)
		}
	}
}

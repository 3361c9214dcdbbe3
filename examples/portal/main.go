// Portal example: the full HTTP control plane end to end. An iTracker
// portal serves the paper's interfaces on a loopback listener; a portal
// client (the appTracker side) discovers it, resolves a client's PID
// from its IP, fetches policy and p-distances, and makes a selection.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/topology"

	"math/rand"
)

func main() {
	// Provider side: engine + iTracker + HTTP portal.
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	engine := core.NewEngine(g, r, core.Config{Objective: core.MinimizeBDP})
	tr := itracker.New(itracker.Config{
		Name: g.Name,
		ASN:  11537,
		Policy: itracker.Policy{
			NearCongestionUtil: 0.7,
			HeavyUsageUtil:     0.9,
		},
		Capabilities: []itracker.Capability{
			{Kind: "cache", PID: 3, CapacityBps: 10e9},
		},
	}, engine, itracker.SyntheticPIDMap(g))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: portal.NewHandler(tr)}
	//p4pvet:ignore goroleak demo server; Serve returns when the deferred srv.Close tears down the listener
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	defer srv.Close()
	baseURL := "http://" + ln.Addr().String()

	// Discovery shim: domain -> portal URL (stands in for DNS SRV).
	registry := portal.Registry{"abilene.example": baseURL}
	url, err := registry.Discover("abilene.example")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("discovered portal:", url)

	// Application side.
	client := portal.NewClient(url, "")
	ctx := context.Background()

	// 1. Where am I? (IP -> PID mapping)
	me, err := client.LookupPIDContext(ctx, itracker.SyntheticIP(9, 42)) // a WashingtonDC address
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client PID %d in AS %d\n", me.PID, me.ASN)

	// 2. Network policy.
	pol, err := client.PolicyContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy: near-congestion at %.0f%%, heavy usage at %.0f%%\n",
		pol.NearCongestionUtil*100, pol.HeavyUsageUtil*100)

	// 3. Capabilities.
	caps, err := client.CapabilitiesContext(ctx, "cache")
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range caps {
		fmt.Printf("capability: %s at PID %d (%.0f Gbps)\n", c.Kind, c.PID, c.CapacityBps/1e9)
	}

	// 4. Distances, then a peer-selection decision.
	view, err := client.DistancesContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("p-distance view covers %d PIDs (version %d)\n", len(view.PIDs), view.Version)

	sel := &apptracker.P4P{Views: staticViews{view}}
	var candidates []apptracker.Node
	for i, pid := range view.PIDs {
		candidates = append(candidates, apptracker.Node{ID: i + 1, PID: pid, ASN: me.ASN})
	}
	self := apptracker.Node{ID: 0, PID: me.PID, ASN: me.ASN}
	picks := sel.Select(self, candidates, 5, rand.New(rand.NewSource(1)))
	fmt.Print("selected peer PIDs:")
	for _, idx := range picks {
		fmt.Printf(" %d", candidates[idx].PID)
	}
	fmt.Println()
}

type staticViews struct{ v *core.View }

func (s staticViews) ViewFor(asn int) apptracker.DistanceView { return s.v }

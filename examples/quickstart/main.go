// Quickstart: build a topology, run a p-distance engine, serve it
// through an iTracker, and make a P4P peer-selection decision — the
// smallest end-to-end tour of the library.
package main

import (
	"fmt"
	"math/rand"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/topology"
)

func main() {
	// 1. The provider's internal view: the Abilene backbone.
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	fmt.Printf("topology %s: %d PIDs, %d links\n", g.Name, g.NumNodes(), g.NumLinks())

	// 2. The p-distance engine with the MLU objective (Section 5).
	engine := core.NewEngine(g, r, core.Config{Objective: core.MinimizeMLU, StepSize: 0.2})

	// 3. Feed it a traffic observation: hammer the DC -> NY link.
	dc, _ := g.FindNode("WashingtonDC")
	ny, _ := g.FindNode("NewYork")
	hot, _ := g.FindLink(dc, ny)
	loads := make([]float64, g.NumLinks())
	loads[hot] = 8e9 // 8 Gbps of P2P traffic on a 10 Gbps link
	for i := 0; i < 20; i++ {
		engine.ObserveTraffic(loads)
		engine.Update()
	}

	// 4. The iTracker portal wraps the engine with the paper's three
	// interfaces; applications see only the external view.
	tr := itracker.New(itracker.Config{Name: g.Name, ASN: 11537}, engine, itracker.SyntheticPIDMap(g))
	view, err := tr.Distances("")
	if err != nil {
		panic(err)
	}
	fmt.Printf("\np-distances from WashingtonDC (PID %d):\n", dc)
	for _, pid := range view.PIDs {
		if pid != dc {
			fmt.Printf("  -> %-14s %.3g\n", g.Node(pid).Name, view.Distance(dc, pid))
		}
	}

	// 5. A P4P appTracker turns the view into peer choices.
	sel := &apptracker.P4P{Views: tr}
	var candidates []apptracker.Node
	for i, pid := range g.AggregationPIDs() {
		for k := 0; k < 5; k++ {
			candidates = append(candidates, apptracker.Node{ID: i*10 + k + 1, PID: pid, ASN: 11537})
		}
	}
	self := apptracker.Node{ID: 0, PID: dc, ASN: 11537}
	picks := sel.Select(self, candidates, 10, rand.New(rand.NewSource(1)))
	fmt.Println("\nselected peers for a WashingtonDC client:")
	counts := map[string]int{}
	for _, idx := range picks {
		counts[g.Node(candidates[idx].PID).Name]++
	}
	for name, c := range counts {
		fmt.Printf("  %-14s x%d\n", name, c)
	}
	fmt.Println("\nnote: the priced DC<->NY direction pushes selection away from NewYork.")
}

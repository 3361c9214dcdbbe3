package main

import (
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// TestPerturbedViewsDiffer checks that two iTrackers started with the
// same -perturb publish different first views on Abilene: the factor
// sequence is seeded per process, so a consumer cannot replay it.
func TestPerturbedViewsDiffer(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	var views [2]*core.View
	for k := range views {
		cfg, err := engineConfig("mlu", 0.1, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		views[k] = core.NewEngine(g, r, cfg).Matrix(pids)
	}
	for a := range views[0].D {
		for b := range views[0].D[a] {
			if views[0].D[a][b] != views[1].D[a][b] {
				return
			}
		}
	}
	t.Fatal("two perturbing engines published bit-identical first views")
}

func TestEngineConfigRejectsUnknownObjective(t *testing.T) {
	if _, err := engineConfig("fastest", 0.1, 0); err == nil {
		t.Fatal("engineConfig accepted an unknown objective")
	}
}

package main

import (
	"math"
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
	// What core.NewEngine refuses is an error here, not a panic: a
	// non-finite step wedges the first update, and a perturbation of 1
	// or more publishes negative distances.
	for _, bad := range []struct{ step, perturb float64 }{
		{-1, 0}, {math.NaN(), 0}, {math.Inf(1), 0},
		{0.1, 1}, {0.1, 1.5}, {0.1, math.Inf(1)}, {0.1, math.NaN()}, {0.1, -0.5},
	} {
		if _, err := engineConfig("mlu", bad.step, bad.perturb); err == nil {
			t.Errorf("engineConfig accepted -step %v -perturb %v", bad.step, bad.perturb)
		}
	}
}

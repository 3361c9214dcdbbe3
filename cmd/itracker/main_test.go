package main

import (
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

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

// TestMisconfiguredFlagsExit2: -update -1s served with no price updates,
// as -update 0 does, -trace-cap 0 was raised to 1, and -tokens "secret,"
// trusted the empty token, so every caller that sent none. The iTracker now
// refuses each at startup with exit 2, as it does a bad -step, -perturb,
// -objective or -topology; the test runs main in a child process of the
// test binary.
func TestMisconfiguredFlagsExit2(t *testing.T) {
	if args := os.Getenv("ITRACKER_TEST_ARGS"); args != "" {
		os.Args = append([]string{"itracker"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, want string }{
		{"-update -1s", "must not be negative"},
		{"-trace-cap 0", "must be at least 1"},
		{"-trace-cap -3", "must be at least 1"},
		{"-trace-sample NaN", "must both be in [0, 1]"},
		{"-step NaN", "step size NaN"},
		{"-perturb 1", "outside [0, 1)"},
		{"-objective fastest", "unknown objective"},
		{"-topology mars", "unknown topology"},
		{"-tokens secret,", "trusted token is empty"},
	} {
		// An iTracker that accepted the flags would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestMisconfiguredFlagsExit2$")
		cmd.Env = append(os.Environ(), "ITRACKER_TEST_ARGS=-listen 127.0.0.1:0 "+tc.args)
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("itracker %s: err %v, output %q; want exit 2 and %q", tc.args, err, out, tc.want)
		}
	}
}

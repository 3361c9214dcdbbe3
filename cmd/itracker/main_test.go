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
)

func TestEngineConfigRejectsUnknownObjective(t *testing.T) {
	if _, err := engineConfig("fastest", 0.1); err == nil {
		t.Fatal("engineConfig accepted an unknown objective")
	}
	// What core.NewEngine refuses is an error here, not a panic: a
	// non-finite step wedges the first update. A step of 0 is refused
	// too: core.Config reads it as its default of 0.1.
	for _, step := range []float64{-1, math.NaN(), math.Inf(1), 0} {
		if _, err := engineConfig("mlu", step); err == nil {
			t.Errorf("engineConfig accepted -step %v", step)
		}
	}
}

// TestMisconfiguredFlagsExit2: -update -1s served with no price updates,
// as -update 0 does, -trace-cap 0 was raised to 1, -step 0 ran at the
// default step of 0.1, and -tokens "secret," trusted the empty token, so
// every caller that sent none. The iTracker now refuses each at startup
// with exit 2, as it does a bad -objective or -topology and the deleted
// -perturb flag; the test runs main in a child process of the test
// binary.
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
		{"-step 0", "step size 0"},
		{"-perturb 1", "flag provided but not defined: -perturb"},
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

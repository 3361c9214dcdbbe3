package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMisconfiguredFlagsExit2: -ttl 0 served a 30 s TTL and
// -failure-backoff 0 a 5 s backoff, the defaults a zero window fell back
// to, and -trace-sample or -trace-keep NaN never sampled or kept a
// trace. The router now refuses each at startup with exit 2; the test
// runs main in a child process of the test binary.
func TestMisconfiguredFlagsExit2(t *testing.T) {
	if args := os.Getenv("P4PFED_TEST_ARGS"); args != "" {
		os.Args = append([]string{"p4pfed"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, want string }{
		{"-ttl 0s", "must both be positive"},
		{"-ttl -1s", "must both be positive"},
		{"-failure-backoff 0s", "must both be positive"},
		{"-failure-backoff -5s", "must both be positive"},
		{"-trace-sample NaN", "must both be in [0, 1]"},
		{"-trace-keep NaN", "must both be in [0, 1]"},
	} {
		// A router that accepted the flags would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestMisconfiguredFlagsExit2$")
		cmd.Env = append(os.Environ(), "P4PFED_TEST_ARGS=-listen 127.0.0.1:0 -shard a=http://127.0.0.1:1 "+tc.args)
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("p4pfed %s: err %v, output %q; want exit 2 and %q", tc.args, err, out, tc.want)
		}
	}
}

package main

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"p4p/internal/experiments"
)

// TestCellMatchesReport: p4psim's F7 cell at 4 clients, seed 242 is the
// n=200 point of the F7 report at scale 0.02, seed 42, so its mean
// completion time has the same bits as that point, for every policy.
func TestCellMatchesReport(t *testing.T) {
	rep := experiments.Figure7SwarmSize(experiments.Options{Scale: 0.02, Seed: 42, Parallelism: 1})
	mean := regexp.MustCompile(`(?m)^fingerprint .* mean=([0-9a-f]+) `)
	for _, p := range []string{"native", "localized", "p4p"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-figure", "F7", "-policy", p, "-clients", "4", "-seed", "242"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", p, code, stderr.String())
		}
		m := mean.FindStringSubmatch(stdout.String())
		if m == nil {
			t.Fatalf("%s: no fingerprint mean in\n%s", p, stdout.String())
		}
		got, err := strconv.ParseUint(m[1], 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		pt := rep.Series["completion/"+p][0]
		if want := math.Float64bits(pt[1]); pt[0] != 4 || got != want {
			t.Errorf("%s: mean bits %x, report's (%v, %v) has %x", p, got, pt[0], pt[1], want)
		}
	}
}

// TestRefusals: a figure with no swarm cell, an unknown figure or
// policy, no clients and a bad flag each exit 2 with one line on stderr
// and nothing on stdout.
func TestRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "F9"},
		{"-figure", "X"},
		{"-policy", "bogus"},
		{"-clients", "0"},
		{"-bogus"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, want empty", args, stdout.String())
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line", args, msg)
		}
	}
}

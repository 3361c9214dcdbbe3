package main

import (
	"flag"
	"io"
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
	f7, _ := experiments.Lookup("F7")
	rep := f7.Run(experiments.Options{Scale: 0.02, Seed: 42, Parallelism: 1})
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

// flagRows names, for every flag newFlags defines, its hostile values
// and what each does: exit 2 with one stderr line holding note, or exit
// 0, note saying why the value is accepted. Each value is set on top of
// "-clients 2", so an accepted one runs a two-leecher F7 cell.
var flagRows = map[string][]struct {
	value string
	exit  int
	note  string
}{
	"figure": {
		{"", 2, `figure "" has no swarm cell`},
		{"F9", 2, `figure "F9" has no swarm cell`},
		{"X", 2, `figure "X" has no swarm cell`},
		{"0", 2, `figure "0" has no swarm cell`},
		{"-1", 2, `figure "-1" has no swarm cell`},
	},
	"policy": {
		{"", 2, `unknown policy ""`},
		{"0", 2, `unknown policy "0"`},
		{"-1", 2, `unknown policy "-1"`},
		{"NaN", 2, `unknown policy "NaN"`},
		{"bogus", 2, `unknown policy "bogus"`},
	},
	"clients": {
		{"0", 2, "0 clients: want at least 1"},
		{"-1", 2, "-1 clients: want at least 1"},
		{"", 2, "parse error"},
	},
	"seed": {
		{"0", 0, "every int64 is a seed"},
		{"-1", 0, "every int64 is a seed"},
		{"", 2, "parse error"},
	},
	"cpuprofile": {
		{"", 0, "the default: no profile"},
		{"no-such-dir/cpu.pprof", 2, "no such file or directory"},
	},
	"memprofile": {
		{"", 0, "the default: no profile"},
		{"no-such-dir/mem.pprof", 2, "no such file or directory"},
	},
}

// TestEveryFlagHasARow runs every row of flagRows, and fails on a flag
// without a row: a new flag states its hostile values here. A refused
// value leaves stdout empty, and an undefined flag is refused too.
func TestEveryFlagHasARow(t *testing.T) {
	newFlags(&options{}, io.Discard).VisitAll(func(f *flag.Flag) {
		if len(flagRows[f.Name]) == 0 {
			t.Errorf("-%s has no row in flagRows", f.Name)
		}
	})
	for name, rows := range flagRows {
		if newFlags(&options{}, io.Discard).Lookup(name) == nil {
			t.Errorf("flagRows names -%s, which newFlags does not define", name)
		}
		for _, row := range rows {
			checkFlag(t, []string{"-clients", "2", "-" + name + "=" + row.value}, row.exit, row.note)
		}
	}
	checkFlag(t, []string{"-bogus"}, 2, "flag provided but not defined")
	// -h is a request, not a refused setting: the defaults, exit 0.
	var defaults, stdout, stderr strings.Builder
	newFlags(&options{}, &defaults).PrintDefaults()
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || stderr.String() != defaults.String() {
		t.Errorf("-h: exit %d, stdout %q, stderr %q; want exit 0 and the defaults on stderr", code, stdout.String(), stderr.String())
	}
}

func checkFlag(t *testing.T, args []string, exit int, note string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	switch {
	case code != exit:
		t.Errorf("%q: exit %d, want %d (%s); stderr %q", args, code, exit, note, stderr.String())
	case exit == 2 && (stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.Contains(stderr.String(), note)):
		t.Errorf("%q: stdout %q, stderr %q; want no report and one line holding %q", args, stdout.String(), stderr.String(), note)
	}
}

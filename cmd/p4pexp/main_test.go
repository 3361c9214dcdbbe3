package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

// flagRows names, for every flag newFlags defines, its hostile values
// and what each does: exit 2 with one stderr line holding note, or exit
// 0, note saying why the value is accepted. Each value is set on top of
// "-run T1 -scale 0.02", so an accepted one runs T1 at that size.
var flagRows = map[string][]struct {
	value string
	exit  int
	note  string
}{
	"list": {
		{"0", 0, "ParseBool's false: the reports run"},
		{"", 2, "invalid boolean value"},
		{"-1", 2, "invalid boolean value"},
		{"NaN", 2, "invalid boolean value"},
	},
	"run": {
		{"", 2, `unknown experiment ""`},
		{"0", 2, `unknown experiment "0"`},
		{"-1", 2, `unknown experiment "-1"`},
		{"T1,NaN", 2, `unknown experiment "NaN"`},
	},
	// 0 once ran at paper scale; 1.5 and -0.5 panicked.
	"scale": {
		{"0", 2, "outside (0, 1]"},
		{"-1", 2, "outside (0, 1]"},
		{"-0.5", 2, "outside (0, 1]"},
		{"1.5", 2, "outside (0, 1]"},
		{"NaN", 2, "outside (0, 1]"},
		{"", 2, "parse error"},
	},
	"seed": {
		{"0", 0, "every int64 is a seed"},
		{"-1", 0, "every int64 is a seed"},
		{"", 2, "parse error"},
	},
	// -3 once ran with GOMAXPROCS workers.
	"parallel": {
		{"0", 0, "the documented GOMAXPROCS default"},
		{"-1", 2, "is negative"},
		{"-3", 2, "is negative"},
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
	for name := range flagRows {
		if newFlags(&options{}, io.Discard).Lookup(name) == nil {
			t.Errorf("flagRows names -%s, which newFlags does not define", name)
		}
		checkRows(t, name)
	}
	checkFlag(t, []string{"-bogus"}, 2, "flag provided but not defined")
	// -h is a request, not a refused setting: the defaults, exit 0.
	var defaults, stdout, stderr strings.Builder
	newFlags(&options{}, &defaults).PrintDefaults()
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || stderr.String() != defaults.String() {
		t.Errorf("-h: exit %d, stdout %q, stderr %q; want exit 0 and the defaults on stderr", code, stdout.String(), stderr.String())
	}
}

// TestScaleOutOfRange: a -scale outside (0, 1] is refused before any
// experiment runs.
func TestScaleOutOfRange(t *testing.T) { checkRows(t, "scale") }

// TestNegativeParallel: a -parallel below 0 is refused before any
// experiment runs.
func TestNegativeParallel(t *testing.T) { checkRows(t, "parallel") }

// checkRows runs the flagRows rows of one flag.
func checkRows(t *testing.T, name string) {
	t.Helper()
	for _, row := range flagRows[name] {
		checkFlag(t, []string{"-run", "T1", "-scale", "0.02", "-" + name + "=" + row.value}, row.exit, row.note)
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

// TestUnknownExperiment: an ID the table lacks is refused with exit 2,
// nothing on stdout and one stderr line naming it, before any listed
// experiment runs. T1,NOPE used to run T1 and exit 0.
func TestUnknownExperiment(t *testing.T) {
	for ids, unknown := range map[string]string{"T1,NOPE": "NOPE", "NOPE,T1": "NOPE", "": ""} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-run", ids, "-scale", "0.02"}, &stdout, &stderr); code != 2 {
			t.Errorf("-run %q: exit %d, want 2", ids, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-run %q: stdout %q, want empty", ids, stdout.String())
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, fmt.Sprintf("unknown experiment %q", unknown)) {
			t.Errorf("-run %q: stderr %q, want one line naming %q", ids, msg, unknown)
		}
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-run", "t1, x4", "-scale", "0.02"}, &stdout, &stderr); code != 0 {
		t.Fatalf("IDs are matched ignoring case and spaces: exit %d, stderr %q", code, stderr.String())
	}
}

// TestStdoutIsReportsOnly:stdout holds each report followed by a blank
// line and nothing else; the timing line goes to stderr.
func TestStdoutIsReportsOnly(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-run", "T1", "-scale", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "=== T1: ") || !strings.HasSuffix(out, "\n\n") || strings.Contains(out, "(T1 in ") {
		t.Fatalf("stdout is not the T1 report alone:\n%s", out)
	}
	if !strings.HasPrefix(stderr.String(), "(T1 in ") {
		t.Fatalf("stderr %q, want the timing line", stderr.String())
	}
}

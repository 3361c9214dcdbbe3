package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestScaleOutOfRange: a -scale outside (0, 1] is refused with a
// one-line message and exit 2, before any experiment runs. 0 used to
// run at paper scale and 1.5 or -0.5 used to panic.
func TestScaleOutOfRange(t *testing.T) {
	for _, scale := range []string{"0", "1.5", "-0.5", "NaN"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-run", "T1", "-scale", scale}, &stdout, &stderr); code != 2 {
			t.Errorf("-scale %s: exit %d, want 2", scale, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-scale %s: stdout %q, want empty", scale, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "outside (0, 1]") || strings.Count(msg, "\n") != 1 {
			t.Errorf("-scale %s: stderr %q, want one line naming the range", scale, msg)
		}
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

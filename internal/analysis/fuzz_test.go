package analysis

import (
	"strings"
	"testing"
)

// FuzzIgnoreDirective hammers the //p4pvet:ignore comment parser with
// arbitrary comment text. Invariants: it never panics; a comment that
// is not a directive is (_, _, false); a well-formed directive for a
// known rule round-trips the rule name with no error; a malformed
// directive always carries a diagnostic, never a rule — the driver
// relies on exactly one of (rule, errMsg) being set to decide between
// suppressing and reporting.
func FuzzIgnoreDirective(f *testing.F) {
	seeds := []string{
		"//p4pvet:ignore lockheld held across a copy on purpose",
		"// p4pvet:ignore floatsentinel sentinel compared on purpose",
		"//p4pvet:ignore goroleak",
		"//p4pvet:ignore",
		"//p4pvet:ignore nosuchrule some reason",
		"//p4pvet:ignorectxflow reason glued to the marker",
		"// just a comment",
		"//p4pvet:ignore spanend\ttab separated reason",
		"/* p4pvet:ignore sleeptest block comment */",
		"//P4PVET:IGNORE lockheld wrong case",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	f.Fuzz(func(t *testing.T, comment string) {
		rule, errMsg, ok := parseIgnoreDirective(comment, known)
		if !ok {
			if rule != "" || errMsg != "" {
				t.Fatalf("non-directive %q returned rule=%q errMsg=%q", comment, rule, errMsg)
			}
			return
		}
		if (rule == "") == (errMsg == "") {
			t.Fatalf("directive %q: exactly one of rule (%q) and errMsg (%q) must be set", comment, rule, errMsg)
		}
		if rule != "" && !known[rule] {
			t.Fatalf("directive %q validated unknown rule %q", comment, rule)
		}
		// A validated directive must actually contain its rule name.
		if rule != "" && !strings.Contains(comment, rule) {
			t.Fatalf("directive %q claims rule %q not present in the text", comment, rule)
		}
	})
}

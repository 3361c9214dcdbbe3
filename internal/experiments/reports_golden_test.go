package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestReportsGolden renders every experiment at Scale 0.02, Seed 42 and
// compares the bytes with testdata/reports_seed42_scale002.txt, which is
// what `p4pexp -run all -scale 0.02 -seed 42` prints on stdout (each
// report followed by a blank line) under a short header. A refactor of
// the harness must leave it passing untouched; a change meant to move
// report bytes regenerates the file and says so.
func TestReportsGolden(t *testing.T) {
	const path = "testdata/reports_seed42_scale002.txt"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The header is every line before the first blank one.
	_, want, ok := strings.Cut(string(raw), "\n\n")
	if !ok {
		t.Fatalf("%s: no blank line after the header", path)
	}
	// The order of cmd/p4pexp's experiment table.
	all := []func(Options) *Report{
		Table1Networks, Figure6BitTorrentInternet, Figure7SwarmSize, Figure8ISPA,
		Figure9Liveswarms, Figure10Interdomain, Figure11SwarmStats,
		Table2FieldTestTraffic, Table3FieldTestInternal, Figure12aUnitBDP,
		Figure12bCompletion, Figure12cFTTP, MetroHopsClaim,
		SuperGradientConvergence, ChargingPrediction, SwarmTailClaim,
		AblationBeta, AblationConcave, AblationAggregation, FederationPair,
	}
	var b strings.Builder
	for _, fn := range all {
		b.WriteString(renderReport(t, fn(Options{Scale: 0.02, Seed: 42})))
		b.WriteByte('\n')
	}
	if got := b.String(); got != want {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				w := "<end of file>"
				if i < len(wantLines) {
					w = wantLines[i]
				}
				t.Fatalf("%s: first difference at report line %d:\n got %s\nwant %s", path, i+1, gotLines[i], w)
			}
		}
		t.Fatalf("%s: output is a prefix of the golden file (%d of %d lines)", path, len(gotLines), len(wantLines))
	}
}

// Command p4pvet runs the repo's own static analyzers (see
// internal/analysis and DESIGN.md §8) over the module rooted at the
// working directory and fails when any invariant is violated without
// an explicit, reasoned //p4pvet:ignore suppression.
//
// Usage:
//
//	p4pvet [-timing] [./...]
//
// The whole module is always checked; any argument other than the
// literal "./..." is refused with exit status 2. Packages are
// typechecked across GOMAXPROCS workers and findings print in
// deterministic path order as
//
//	file:line: [rule] message
//
// the format .github/p4pvet-problem-matcher.json reads. The exit status
// is 1 when any finding survives suppression. -timing reports the
// load/analyze/total wall-time split on stderr so CI can track analyzer
// cost.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"p4p/internal/analysis"
)

func main() {
	timing := flag.Bool("timing", false, "report load/analyze/total wall time on stderr")
	flag.Parse()
	if args := flag.Args(); len(args) > 1 || (len(args) == 1 && args[0] != "./...") {
		fmt.Fprintf(os.Stderr, "p4pvet: unexpected arguments %q; p4pvet checks the whole module (./...)\n", args)
		os.Exit(2)
	}

	root, err := filepath.Abs(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4pvet:", err)
		os.Exit(2)
	}
	start := time.Now()
	pkgs, err := analysis.NewLoader().LoadTreeParallel(root, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4pvet:", err)
		os.Exit(2)
	}
	loadDone := time.Now()

	var findings []analysis.Finding
	suppressed := 0
	for _, p := range pkgs {
		kept, sup := analysis.RunAll(p, analysis.Analyzers())
		suppressed += sup
		findings = append(findings, kept...)
	}
	// Units load in directory order; one sort over root-relative paths
	// puts a directory's package and external _test findings in one
	// sequence.
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = rel
		}
	}
	analysis.SortFindings(findings)
	analyzeDone := time.Now()

	for _, f := range findings {
		fmt.Println(f)
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "p4pvet: timing: load %.2fs, analyze %.2fs, total %.2fs (%d unit(s))\n",
			loadDone.Sub(start).Seconds(), analyzeDone.Sub(loadDone).Seconds(),
			time.Since(start).Seconds(), len(pkgs))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "p4pvet: %d finding(s), %d suppressed in %.2fs\n",
			len(findings), suppressed, time.Since(start).Seconds())
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "p4pvet: clean (%d unit(s), %d suppressed finding(s)) in %.2fs\n",
		len(pkgs), suppressed, time.Since(start).Seconds())
}

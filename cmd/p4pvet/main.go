// Command p4pvet runs the repo's own static analyzers (see
// internal/analysis and DESIGN.md §8/§12) over the module and fails
// when any invariant is violated without an explicit, reasoned
// //p4pvet:ignore suppression.
//
// Usage:
//
//	p4pvet [-C dir] [-rules r1,r2] [-list] [-v] [-json] [-timing] [-p n] [./...]
//
// With no package arguments (or the literal "./...") the whole module
// rooted at -C is checked; otherwise each argument names a package
// directory relative to -C. Packages are typechecked across a bounded
// worker pool (-p, default GOMAXPROCS) and findings print in
// deterministic path order as
//
//	file:line: [rule] message
//
// or, with -json, as one JSON array of {file, line, rule, message}
// objects on stdout. The exit status is 1 when any finding survives
// suppression. -timing reports the load/analyze/total wall-time split
// on stderr so CI can track analyzer cost.
//
// Analyzers that need the whole module at once (lockheld's
// interprocedural pass) run after the per-package pass over the same
// loaded units; their findings merge into the same output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"p4p/internal/analysis"
)

func main() {
	root := flag.String("C", ".", "module root to analyze")
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default all)")
	list := flag.Bool("list", false, "list the available rules and exit")
	verbose := flag.Bool("v", false, "also report per-package suppression counts")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	timing := flag.Bool("timing", false, "report load/analyze/total wall time on stderr")
	workers := flag.Int("p", 0, "worker pool size for typechecking (0 = GOMAXPROCS)")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4pvet:", err)
		os.Exit(2)
	}

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4pvet:", err)
		os.Exit(2)
	}
	start := time.Now()
	loader := analysis.NewLoader()
	pkgs, err := loadTargets(loader, absRoot, flag.Args(), *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4pvet:", err)
		os.Exit(2)
	}
	loadDone := time.Now()

	var findings []analysis.Finding
	suppressed := 0
	for _, p := range pkgs {
		kept, sup := analysis.RunAll(p, analyzers)
		suppressed += sup
		if *verbose && sup > 0 {
			fmt.Fprintf(os.Stderr, "p4pvet: %s: %d suppressed finding(s)\n", p.ImportPath, sup)
		}
		findings = append(findings, kept...)
	}
	mod := analysis.NewModule(pkgs)
	modKept, modSup := analysis.RunModuleAll(mod, analyzers)
	suppressed += modSup
	findings = append(findings, modKept...)
	sortByRelPath(absRoot, findings)
	analyzeDone := time.Now()

	if *jsonOut {
		printJSON(absRoot, findings)
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d: [%s] %s\n", relPath(absRoot, f.Pos.Filename), f.Pos.Line, f.Rule, f.Msg)
		}
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "p4pvet: timing: load %.2fs, analyze %.2fs, total %.2fs (%d unit(s), %d worker(s))\n",
			loadDone.Sub(start).Seconds(), analyzeDone.Sub(loadDone).Seconds(),
			time.Since(start).Seconds(), len(pkgs), poolSize(*workers))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "p4pvet: %d finding(s), %d suppressed in %.2fs\n",
			len(findings), suppressed, time.Since(start).Seconds())
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "p4pvet: clean (%d unit(s), %d suppressed finding(s)) in %.2fs\n",
		len(pkgs), suppressed, time.Since(start).Seconds())
}

// jsonFinding is the machine-readable diagnostic shape; file is
// root-relative for stable CI annotations.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func printJSON(root string, findings []analysis.Finding) {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:    relPath(root, f.Pos.Filename),
			Line:    f.Pos.Line,
			Rule:    f.Rule,
			Message: f.Msg,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "p4pvet:", err)
		os.Exit(2)
	}
}

func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// sortByRelPath orders findings by root-relative path, line, then
// rule, so the merged per-package and module findings print in one
// deterministic sequence.
func sortByRelPath(root string, findings []analysis.Finding) {
	for i := range findings {
		findings[i].Pos.Filename = relPath(root, findings[i].Pos.Filename)
	}
	analysis.SortFindings(findings)
}

// selectAnalyzers resolves the -rules flag against the registry.
func selectAnalyzers(rules string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if rules == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (try -list)", name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// loadTargets loads the whole module, or just the named directories,
// across the worker pool.
func loadTargets(loader *analysis.Loader, root string, args []string, workers int) ([]*analysis.Pkg, error) {
	if len(args) == 0 || (len(args) == 1 && args[0] == "./...") {
		return loader.LoadTreeParallel(root, root, workers)
	}
	var pkgs []*analysis.Pkg
	for _, arg := range args {
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimSuffix(arg, "/...")))
		got, err := loader.LoadTreeParallel(root, dir, workers)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	return pkgs, nil
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

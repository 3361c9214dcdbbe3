// Command p4pexp regenerates the paper's tables and figures. Each
// experiment prints the rows or series the paper reports; see DESIGN.md
// for the experiment index and EXPERIMENTS.md for paper-vs-measured.
//
//	p4pexp -list
//	p4pexp -run F6,F10 -scale 0.5
//	p4pexp -run all -scale 1.0 -parallel 8
//
// -parallel bounds the worker pool that fans each experiment's
// independent simulation cells (0 = GOMAXPROCS, 1 = serial); output is
// byte-identical at any setting. Stdout carries the reports alone, each
// followed by a blank line; the "(ID in 12ms)" timing lines go to
// stderr. A -scale outside (0, 1] is an error (exit 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"p4p/internal/experiments"
)

type experiment struct {
	id   string
	desc string
	fn   func(experiments.Options) *experiments.Report
}

var all = []experiment{
	{"T1", "Table 1: networks evaluated", experiments.Table1Networks},
	{"F6", "Figure 6: BitTorrent Internet experiments", experiments.Figure6BitTorrentInternet},
	{"F7", "Figure 7: swarm-size sweep on Abilene", experiments.Figure7SwarmSize},
	{"F8", "Figure 8: swarm-size sweep on ISP-A", experiments.Figure8ISPA},
	{"F9", "Figure 9: Liveswarms streaming", experiments.Figure9Liveswarms},
	{"F10", "Figure 10: interdomain multihoming", experiments.Figure10Interdomain},
	{"F11", "Figure 11: field-test swarm sizes", experiments.Figure11SwarmStats},
	{"T2", "Table 2: field-test overall traffic", experiments.Table2FieldTestTraffic},
	{"T3", "Table 3: field-test internal traffic", experiments.Table3FieldTestInternal},
	{"F12a", "Figure 12a: unit BDP", experiments.Figure12aUnitBDP},
	{"F12b", "Figure 12b: completion times, all ISP-B", experiments.Figure12bCompletion},
	{"F12c", "Figure 12c: completion times, FTTP", experiments.Figure12cFTTP},
	{"X1", "Metro-hop reduction claim", experiments.MetroHopsClaim},
	{"X2", "Dual decomposition convergence", experiments.SuperGradientConvergence},
	{"X3", "Charging-volume prediction", experiments.ChargingPrediction},
	{"X4", "Swarm-size tail", experiments.SwarmTailClaim},
	{"A1", "Ablation: efficiency factor beta", experiments.AblationBeta},
	{"A2", "Ablation: concave robustness transform", experiments.AblationConcave},
	{"A3", "Ablation: PID aggregation granularity", experiments.AblationAggregation},
	{"FED", "Multi-iTracker federation: two providers, live portals", experiments.FederationPair},
}

func main() {
	// All work happens in run so deferred profile flushes execute before
	// the process exits; os.Exit here would skip them.
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and writes the reports to stdout; everything else
// (timings, errors) goes to stderr, so stdout can be compared with cmp.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p4pexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list experiments and exit")
		runIDs   = fs.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scale    = fs.Float64("scale", 1.0, "workload scale in (0, 1]")
		seed     = fs.Int64("seed", 42, "random seed")
		parallel = fs.Int("parallel", 0, "worker pool size for independent simulation cells (0 = GOMAXPROCS, 1 = serial)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(*scale > 0 && *scale <= 1) {
		fmt.Fprintf(stderr, "p4pexp: -scale %v is outside (0, 1]\n", *scale)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	if *list {
		for _, e := range all {
			fmt.Fprintf(stdout, "%-5s %s\n", e.id, e.desc)
		}
		return 0
	}

	want := map[string]bool{}
	runAll := *runIDs == "all"
	for _, id := range strings.Split(*runIDs, ",") {
		want[strings.TrimSpace(strings.ToUpper(id))] = true
	}
	ran := 0
	for _, e := range all {
		if !runAll && !want[strings.ToUpper(e.id)] {
			continue
		}
		start := time.Now()
		rep := e.fn(experiments.Options{Scale: *scale, Seed: *seed, Parallelism: *parallel})
		if _, err := rep.WriteTo(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "(%s in %s)\n", e.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "no experiments matched %q; use -list\n", *runIDs)
		return 2
	}
	return 0
}

// Command p4pexp regenerates the paper's tables and figures, the ones
// experiments.Experiments lists (-list prints each ID and title). Each
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
// stderr. A -scale outside (0, 1], a negative -parallel or an unknown ID
// is an error (exit 2).
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
	if *parallel < 0 {
		fmt.Fprintf(stderr, "p4pexp: -parallel %d is negative\n", *parallel)
		return 2
	}
	if *list {
		for _, e := range experiments.Experiments {
			fmt.Fprintf(stdout, "%-5s %s\n", e.ID, e.Title)
		}
		return 0
	}
	// Every requested ID is checked before anything runs; the reports
	// come out in the table's order, each once. An empty want is "all".
	want := map[string]bool{}
	if *runIDs != "all" {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "p4pexp: unknown experiment %q; use -list\n", id)
				return 2
			}
			want[e.ID] = true
		}
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

	for _, e := range experiments.Experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		rep := e.Run(experiments.Options{Scale: *scale, Seed: *seed, Parallelism: *parallel})
		if _, err := rep.WriteTo(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "(%s in %s)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

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

// options are p4pexp's settings.
type options struct {
	list             bool
	runIDs           string
	scale            float64
	seed             int64
	parallel         int
	cpuProf, memProf string
}

// newFlags is p4pexp's flag set, writing into o. A bad flag is one line
// on stderr; -h prints the defaults and is not refused.
func newFlags(o *options, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("p4pexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {}
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	fs.StringVar(&o.runIDs, "run", "all", "comma-separated experiment IDs, or 'all'")
	fs.Float64Var(&o.scale, "scale", 1.0, "workload scale in (0, 1]")
	fs.Int64Var(&o.seed, "seed", 42, "random seed")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool size for independent simulation cells (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file at exit")
	return fs
}

// run parses args and writes the reports to stdout; everything else
// (timings, errors) goes to stderr, so stdout can be compared with cmp.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := newFlags(&o, stderr)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			fs.PrintDefaults()
			return 0
		}
		return 2
	}
	if !(o.scale > 0 && o.scale <= 1) {
		fmt.Fprintf(stderr, "p4pexp: -scale %v is outside (0, 1]\n", o.scale)
		return 2
	}
	if o.parallel < 0 {
		fmt.Fprintf(stderr, "p4pexp: -parallel %d is negative\n", o.parallel)
		return 2
	}
	if o.list {
		for _, e := range experiments.Experiments {
			fmt.Fprintf(stdout, "%-5s %s\n", e.ID, e.Title)
		}
		return 0
	}
	// Every requested ID is checked before anything runs; the reports
	// come out in the table's order, each once. An empty want is "all".
	want := map[string]bool{}
	if o.runIDs != "all" {
		for _, id := range strings.Split(o.runIDs, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "p4pexp: unknown experiment %q; use -list\n", id)
				return 2
			}
			want[e.ID] = true
		}
	}

	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
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
	if o.memProf != "" {
		// Created now: a path that cannot be written is refused before
		// the runs, not reported after them.
		f, err := os.Create(o.memProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer func() {
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
		rep := e.Run(experiments.Options{Scale: o.scale, Seed: o.seed, Parallelism: o.parallel})
		if _, err := rep.WriteTo(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "(%s in %s)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

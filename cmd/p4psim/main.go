// Command p4psim runs the swarm cell that figure F6, F7, F8 or F10 runs
// for one policy, size and seed, and prints its metrics, run statistics
// and fingerprint. F7's n=200 p4p point at -scale 0.02 -seed 42 is
//
//	p4psim -figure F7 -policy p4p -clients 4 -seed 242
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"p4p/internal/experiments"
	"p4p/internal/p2psim"
)

func main() {
	// run returns, so its deferred profile flushes execute before os.Exit.
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p4psim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {} // a bad flag is one line on stderr; -h prints the defaults below
	figure := fs.String("figure", "F7", "the figure whose swarm cell to run: F6, F7, F8 or F10")
	policy := fs.String("policy", "p4p", "native, localized, or p4p")
	clients := fs.Int("clients", 200, "number of leecher clients; F7 and F8 seed size n with Options.Seed+n")
	seed := fs.Int64("seed", 42, "the cell's random seed")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			fs.PrintDefaults()
		}
		return 2
	}
	cell, err := experiments.FigureCell(*figure, *policy, *clients, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "p4psim: %v\n", err)
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

	res := cell.Run()
	g := cell.Graph()
	fmt.Fprintf(stdout, "cell              %s %s, %d clients, seed %d, %s (%d PIDs, %d links)\n",
		*figure, *policy, *clients, *seed, g.Name, g.NumNodes(), g.NumLinks())
	fmt.Fprintf(stdout, "completed         %d\n", len(res.CompletionTimes()))
	fmt.Fprintf(stdout, "mean completion   %.1f s\n", res.MeanCompletionTime())
	fmt.Fprintf(stdout, "swarm completion  %.1f s\n", res.SwarmCompletionTime())
	if link, bytes := res.BottleneckTraffic(); link >= 0 {
		src, dst := g.Node(g.Link(link).Src), g.Node(g.Link(link).Dst)
		fmt.Fprintf(stdout, "bottleneck        %s -> %s: %.1f MB\n", src.Name, dst.Name, bytes/(1<<20))
	}
	fmt.Fprintf(stdout, "peak utilization  %.2f%%\n", res.PeakUtilization()*100)
	fmt.Fprintf(stdout, "unit BDP          %.2f backbone links/byte\n", res.UnitBDP)
	fmt.Fprintf(stdout, "intra-PID share   %.1f%%\n", 100*res.IntraPIDBytes/res.TotalBytes)
	fmt.Fprintf(stdout, "rate resolves     %d (%.2f flows visited, %.2f re-rated per resolve)\n", res.RateResolves,
		float64(res.FlowsVisited)/float64(res.RateResolves), float64(res.FlowsRerated)/float64(res.RateResolves))
	fmt.Fprint(stdout, "events           ")
	for k, n := range res.Events {
		fmt.Fprintf(stdout, " %s=%d", p2psim.EventKinds[k], n)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "finish events     %d early\n", res.EarlyFires)
	fmt.Fprintf(stdout, "conns             %d made, %d dropped, peak %d live; peak %d live flows\n",
		res.Connects, res.Disconnects, res.PeakConns, res.PeakFlows)
	fmt.Fprintf(stdout, "fingerprint       %s\n", res.Fingerprint())
	return 0
}

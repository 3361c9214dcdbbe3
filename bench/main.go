// Command bench is the repository's one benchmark: four workloads over
// the whole stack, seven end-to-end metrics, a per-layer ladder, and a
// traced run, all in one process on loopback. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run: "+wlSteady+", "+wlChurn+", "+wlFed+", "+wlSwarm+" or all")
		seed     = flag.Int64("seed", 1, "seed for op schedules, batch pairs, candidate sets, link loads and swarm RNGs")
		seconds  = flag.Float64("seconds", 0, "measuring time per workload (default: run_seconds of BENCHMARK.json)")
		trials   = flag.Int("trials", 0, "trials per workload (default: 3 for serving workloads, seconds/4 for swarm-p4p)")
		traceOn  = flag.Int("trace", 0, "1 runs the traced pass and the probes and prints the per-layer metrics; 0 measures end to end")
		jsonOut  = flag.String("json", "", "also write the full result, stamped with its machine, to this file")
		compare  = flag.Bool("compare", false, "compare two -json files (arguments: a.json b.json) against the bounds of BENCHMARK.json")
		smoke    = flag.Bool("smoke", false, "one short trial per workload, small swarms: checks the benchmark, measures nothing")
		spec     = flag.String("benchmark", "BENCHMARK.json", "the benchmark's contract file: run_seconds, metric lists, bounds")
	)
	flag.Parse()

	contract, err := readContract(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(contract, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(contract.RunSeconds)
	}
	names := workloadOrder
	if *workload != "all" {
		if !contract.hasWorkload(*workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}

	rep := &report{Machine: stampMachine(), Seed: *seed, Seconds: *seconds, Trace: *traceOn != 0, Smoke: *smoke}
	ok := true
	if *traceOn != 0 {
		// One traced pass covers all four workloads and every probe;
		// the named workload decides whose spans a shared metric reads.
		tr, err := runTraced(names[0], *seed, *seconds, *smoke, traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		rep.Layers = tr
		printLayers(os.Stdout, contract, tr)
		ok = tr.Correct
	} else {
		for _, name := range names {
			res, err := runWorkload(name, *seed, shapeFor(name, *seconds, *trials, *smoke))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			rep.Workloads = append(rep.Workloads, res)
			printWorkload(os.Stdout, res)
			ok = ok && res.Correct
		}
	}
	if *jsonOut != "" {
		if err := rep.write(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The last line of standard output is the machine-readable result.
	last, err := json.Marshal(rep.lastLine(contract, *workload == "all"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(last))
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: an oracle or a mechanism check failed")
		return 1
	}
	return 0
}

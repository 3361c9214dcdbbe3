// Command p4psim runs a single BitTorrent swarm simulation under a
// chosen peer-selection policy and prints the headline metrics — a
// workbench for one-off what-if runs outside the fixed experiments.
//
//	p4psim -topology abilene -policy p4p -clients 200 -file-mb 12
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/p2psim"
	"p4p/internal/topology"
)

func main() {
	// All work happens in run so deferred profile flushes execute before
	// the process exits; os.Exit here would skip them.
	os.Exit(run())
}

func run() int {
	var (
		topoName = flag.String("topology", "abilene", "abilene, abilene-virtual, isp-a, isp-b, isp-c")
		policy   = flag.String("policy", "p4p", "native, localized, or p4p")
		clients  = flag.Int("clients", 200, "number of leecher clients")
		fileMB   = flag.Int64("file-mb", 12, "file size in MiB")
		upMbps   = flag.Float64("up", 100, "client upload capacity, Mbps")
		downMbps = flag.Float64("down", 100, "client download capacity, Mbps")
		seedMbps = flag.Float64("seed-up", 1000, "initial seed upload, Mbps")
		seed     = flag.Int64("seed", 42, "random seed")
		joinSec  = flag.Float64("join-window", 300, "join window, seconds")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	g, err := topologyByName(*topoName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	r := topology.ComputeRouting(g)

	cfg := p2psim.Config{
		Graph:            g,
		Routing:          r,
		Seed:             *seed,
		FileBytes:        *fileMB << 20,
		TCPWindowBytes:   32 << 10,
		ReselectInterval: 20,
		SampleInterval:   2,
	}
	switch *policy {
	case "native":
		cfg.Selector = apptracker.Random{}
	case "localized":
		cfg.Selector = &apptracker.Localized{Delay: func(a, b apptracker.Node) float64 {
			return r.PropagationDelaySeconds(a.PID, b.PID)
		}}
	case "p4p":
		engine := core.NewEngine(g, r, core.Config{Objective: core.MinimizeMLU, StepSize: 0.3})
		tr := itracker.New(itracker.Config{Name: g.Name, ASN: g.Node(0).ASN}, engine, nil)
		cfg.Selector = &apptracker.P4P{Views: tr}
		cfg.MeasureInterval = 10
		cfg.OnMeasure = func(now float64, rates []float64) { tr.ObserveAndUpdate(rates) }
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		return 2
	}

	sim := p2psim.New(cfg)
	pids := g.AggregationPIDs()
	sim.AddClient(p2psim.ClientSpec{
		PID: pids[0], ASN: g.Node(pids[0]).ASN,
		UpBps: *seedMbps * 1e6, DownBps: *seedMbps * 1e6, IsSeed: true,
	})
	rng := rand.New(rand.NewSource(*seed + 1))
	for i := 0; i < *clients; i++ {
		pid := pids[rng.Intn(len(pids))]
		sim.AddClient(p2psim.ClientSpec{
			PID: pid, ASN: g.Node(pid).ASN,
			UpBps: *upMbps * 1e6, DownBps: *downMbps * 1e6,
			JoinAt: *joinSec * float64(i) / float64(*clients),
		})
	}
	res := sim.Run()

	fmt.Printf("topology          %s (%d PIDs, %d links)\n", g.Name, g.NumNodes(), g.NumLinks())
	fmt.Printf("policy            %s\n", cfg.Selector.Name())
	fmt.Printf("clients           %d + 1 seed, %d MiB file\n", *clients, *fileMB)
	fmt.Printf("completed         %d\n", len(res.CompletionTimes()))
	fmt.Printf("mean completion   %.1f s\n", res.MeanCompletionTime())
	fmt.Printf("swarm completion  %.1f s\n", res.SwarmCompletionTime())
	link, bytes := res.BottleneckTraffic()
	if link >= 0 {
		l := g.Link(link)
		fmt.Printf("bottleneck        %s -> %s: %.1f MB\n",
			g.Node(l.Src).Name, g.Node(l.Dst).Name, bytes/(1<<20))
	}
	fmt.Printf("peak utilization  %.2f%%\n", res.PeakUtilization()*100)
	fmt.Printf("unit BDP          %.2f backbone links/byte\n", res.UnitBDP)
	fmt.Printf("intra-PID share   %.1f%%\n", 100*res.IntraPIDBytes/res.TotalBytes)
	fmt.Printf("rate resolves     %d (%.2f flows visited, %.2f re-rated per resolve)\n", res.RateResolves,
		float64(res.FlowsVisited)/float64(res.RateResolves), float64(res.FlowsRerated)/float64(res.RateResolves))
	var events strings.Builder
	for k, n := range res.Events {
		fmt.Fprintf(&events, " %s=%d", p2psim.EventKinds[k], n)
	}
	fmt.Printf("events           %s\n", events.String())
	fmt.Printf("finish events     %d stale, %d early\n", res.StalePops, res.EarlyFires)
	fmt.Printf("conns             %d made, %d dropped, peak %d live; peak %d live flows\n",
		res.Connects, res.Disconnects, res.PeakConns, res.PeakFlows)
	fmt.Printf("fingerprint       %s\n", res.Fingerprint())
	return 0
}

func topologyByName(name string) (*topology.Graph, error) {
	switch strings.ToLower(name) {
	case "abilene":
		return topology.Abilene(), nil
	case "abilene-virtual":
		return topology.AbileneVirtualISPs(), nil
	case "isp-a", "ispa":
		return topology.ISPA(), nil
	case "isp-b", "ispb":
		return topology.ISPB(), nil
	case "isp-c", "ispc":
		return topology.ISPC(), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

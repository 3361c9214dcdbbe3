package p2psim

import (
	"testing"

	"p4p/internal/apptracker"
	"p4p/internal/topology"
)

// The simulator microbenchmarks measure the discrete-event engine
// itself (ns/op, B/op, allocs/op for a full mid-size swarm run), as
// opposed to the end-to-end experiment benchmarks in the repo root.
// scripts/bench_json.sh sim emits both into BENCH_sim.json so the
// hot-path numbers are tracked across commits.

// benchMidSwarm builds the mid-size reference swarm: 100 leechers plus
// one seed on Abilene, 16 MB file, with the reselection, sampling, and
// measurement hooks all armed (the configuration the Section 7 sweeps
// exercise).
func benchMidSwarm(g *topology.Graph, r *topology.Routing, seed int64) *Sim {
	s := New(Config{
		Graph:            g,
		Routing:          r,
		Selector:         apptracker.Random{},
		Seed:             seed,
		FileBytes:        16 << 20,
		ReselectInterval: 20,
		SampleInterval:   5,
		MeasureInterval:  10,
		OnMeasure:        func(now float64, rates []float64) {},
	})
	pids := g.AggregationPIDs()
	s.AddClient(ClientSpec{PID: pids[0], ASN: 1, UpBps: 100e6, DownBps: 100e6, IsSeed: true})
	for i := 0; i < 100; i++ {
		s.AddClient(ClientSpec{
			PID:     pids[i%len(pids)],
			ASN:     1,
			UpBps:   20e6,
			DownBps: 50e6,
			JoinAt:  float64(i),
		})
	}
	return s
}

// TestSimMidSwarmAllocs pins the event loop's allocation budget: a
// whole benchMidSwarm run, construction included, measures 1,267
// allocations, nearly all of them setup and per-client state. The run
// has ten rechoke rounds and twenty samples, and far more rate resolves
// and flow finishes, so two allocations more per event cross the bound.
func TestSimMidSwarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	allocs := testing.AllocsPerRun(3, func() { benchMidSwarm(g, r, 42).Run() })
	if allocs > 1277 {
		t.Fatalf("mid-size swarm run: %.0f allocs, want <= 1277", allocs)
	}
}

// BenchmarkSimMidSwarm runs the mid-size swarm to completion. This is
// the repo's headline simulator microbenchmark: allocs/op here is the
// number the hot-path work is judged against.
func BenchmarkSimMidSwarm(b *testing.B) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchMidSwarm(g, r, 42)
		res := s.Run()
		if got := len(res.CompletionTimes()); got != 100 {
			b.Fatalf("%d of 100 clients completed", got)
		}
	}
}

// BenchmarkSimStreaming runs the Liveswarms mode (sliding-window piece
// selection, continuous publishing) for a simulated 10 minutes.
func BenchmarkSimStreaming(b *testing.B) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{
			Graph: g, Routing: r, Selector: apptracker.Random{}, Seed: 7,
			PieceBytes: 64 << 10,
			MaxTime:    600,
			Streaming:  &StreamingConfig{RateBps: 400e3, ContentSec: 1200, WindowSec: 60},
		})
		s.AddClient(ClientSpec{PID: pids[0], ASN: 1, UpBps: 20e6, DownBps: 20e6, IsSeed: true})
		for j := 0; j < 30; j++ {
			s.AddClient(ClientSpec{PID: pids[(j+1)%len(pids)], ASN: 1, UpBps: 4e6, DownBps: 4e6})
		}
		res := s.Run()
		if res.TotalBytes <= 0 {
			b.Fatal("no streaming bytes delivered")
		}
	}
}

// BenchmarkSimHundredK exercises the simulator at scale: a
// hundred-thousand-client swarm on Abilene with a small file, which
// holds the event heap at its deepest (every join is pushed at start,
// ~10^5 events), the struct-of-arrays client state, and the O(m)
// tracker sampling. Runs 10k clients under -short so CI can smoke it
// inside the time box; run it with -benchtime 1x — a single run is the
// measurement.
func BenchmarkSimHundredK(b *testing.B) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{
			Graph:     g,
			Routing:   r,
			Selector:  apptracker.Random{},
			Seed:      42,
			FileBytes: 4 << 20,
		})
		s.AddClient(ClientSpec{PID: pids[0], ASN: 1, UpBps: 1e9, DownBps: 1e9, IsSeed: true})
		for j := 0; j < n; j++ {
			s.AddClient(ClientSpec{
				PID:     pids[j%len(pids)],
				ASN:     1,
				UpBps:   20e6,
				DownBps: 50e6,
				JoinAt:  float64(j) * 0.005,
			})
		}
		res := s.Run()
		if got := len(res.CompletionTimes()); got < n*99/100 {
			b.Fatalf("only %d of %d clients completed", got, n)
		}
	}
}
